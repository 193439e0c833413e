// Package lint is mmvet: a static-analysis suite enforcing the repo's
// determinism invariants at compile time rather than by differential
// test. Every headline artifact (D1 taxonomy, D2 catalogs, mmlabd
// checkpoints) is required to be byte-identical across worker counts
// and process restarts; the analyzers here flag the construct classes
// that have historically broken that invariant — unordered map
// iteration feeding output, wall-clock reads in deterministic
// packages, the process-global math/rand source, and unsupervised
// goroutines in the pipeline.
//
// Checks:
//
//   - maprange: a for-range over a map whose body appends to a slice,
//     writes through an encoder/writer/printer, sends on a channel, or
//     returns a value derived from the iteration variables is
//     order-sensitive. Iterate sorted keys instead, or annotate the
//     loop with //mmvet:ordered <reason>.
//   - wallclock: time.Now, time.Since, time.Until and timer
//     constructors are banned in the deterministic packages (core,
//     netsim, sim, fault, radio, mobility, experiment, crawler,
//     analysis). Simulated time must flow from the event clock.
//     Wall-clock stays legal in pipeline, cmd/*, and _test.go files.
//   - globalrand: math/rand (and math/rand/v2) package-level draw
//     functions are banned everywhere, tests included; randomness must
//     flow from an injected seeded *rand.Rand. Non-test code builds
//     that generator with xrand.New, not math/rand's eager NewSource
//     (allowed only in internal/xrand and the mmbench harness).
//   - gorphan: a go statement inside the supervised packages
//     (internal/pipeline, internal/sim, cmd/mmlabd) must be lexically
//     paired with its supervision — a WaitGroup.Add in the immediately
//     preceding statements, or a deferred Done inside the spawned func
//     literal — so drain and restart cannot leak goroutines.
//   - units: dimensional discipline for the internal/units quantity
//     types — no conversions between unit axes (the dB/dBm swap), no
//     float64(x) laundering (use .V()), no raw arithmetic between two
//     absolute dBm levels (use .Add/.SubDb/.Sub), and no bare numeric
//     literals flowing into unit-typed parameters or struct fields
//     outside construction sites (internal/config, tests).
//   - lockorder: infers the mutex-acquisition partial order across the
//     supervised packages from lexical Lock/Unlock pairing (including
//     one level of intra-package calls) and flags order inversions —
//     two locks acquired in both orders — and channel sends performed
//     while a lock is held, both classic deadlock shapes under
//     crash-chaos.
//   - chandir: a bidirectional chan in an exported signature or struct
//     field whose uses are all send-side or all receive-side should be
//     directional (chan<- / <-chan), locking in the pipeline's channel
//     ownership discipline at compile time.
//
// Suppressions are per-line comments with a mandatory reason:
//
//	//mmvet:allow <check> <reason>
//	//mmvet:ordered <reason>          (shorthand for allow maprange)
//	//mmvet:units <reason>            (shorthand for allow units)
//
// placed on the offending line or on the line directly above it. An
// annotation without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Key is the position-independent identity used by the baseline file:
// path (relative to root when possible), check, and message — no line
// numbers, so unrelated edits do not invalidate baseline entries.
func (f Finding) Key(root string) string {
	name := f.Pos.Filename
	if root != "" {
		if rel, ok := strings.CutPrefix(name, strings.TrimSuffix(root, "/")+"/"); ok {
			name = rel
		}
	}
	return name + "\t" + f.Check + "\t" + f.Message
}

// Config selects and parameterizes the checks.
type Config struct {
	// Checks to run; nil means all.
	Checks []string
	// DeterministicPkgs are import-path suffixes where wallclock is
	// banned; nil means DefaultDeterministicPkgs.
	DeterministicPkgs []string
	// SupervisedPkgs are import-path prefixes where gorphan applies;
	// nil means DefaultSupervisedPkgs.
	SupervisedPkgs []string
}

// DefaultDeterministicPkgs are the packages whose outputs feed the
// byte-identical campaign artifacts.
var DefaultDeterministicPkgs = []string{
	"internal/core",
	"internal/netsim",
	"internal/sim",
	"internal/fault",
	"internal/radio",
	"internal/mobility",
	"internal/experiment",
	"internal/crawler",
	"internal/analysis",
}

// DefaultSupervisedPkgs are the packages whose goroutines must be
// lexically supervised (drain/restart machinery) and whose mutexes are
// subject to the lockorder partial-order check: the streaming pipeline,
// the worker pool, and the daemon supervisor.
var DefaultSupervisedPkgs = []string{"internal/pipeline", "internal/sim", "cmd/mmlabd"}

// AllChecks lists every analyzer name.
var AllChecks = []string{"maprange", "wallclock", "globalrand", "gorphan", "units", "lockorder", "chandir"}

func (c Config) wantCheck(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	for _, w := range c.Checks {
		if w == name {
			return true
		}
	}
	return false
}

func (c Config) deterministicPkgs() []string {
	if c.DeterministicPkgs != nil {
		return c.DeterministicPkgs
	}
	return DefaultDeterministicPkgs
}

func (c Config) supervisedPkgs() []string {
	if c.SupervisedPkgs != nil {
		return c.SupervisedPkgs
	}
	return DefaultSupervisedPkgs
}

// CheckTiming is one analyzer's aggregate wall time across all units.
type CheckTiming struct {
	Check   string
	Elapsed time.Duration
}

// Analyze runs the configured checks over the units and returns the
// surviving findings sorted by position. Annotation suppressions are
// applied here; baseline filtering is the caller's business.
func Analyze(units []*Unit, cfg Config) []Finding {
	findings, _ := AnalyzeTimed(units, cfg)
	return findings
}

// AnalyzeTimed is Analyze plus per-analyzer wall time, in AllChecks
// order, for mmvet -v.
func AnalyzeTimed(units []*Unit, cfg Config) ([]Finding, []CheckTiming) {
	elapsed := map[string]time.Duration{}
	var out []Finding
	keep := func(u *Unit, dirs *directiveSet, f Finding) {
		if !u.Report(f.Pos.Filename) {
			return
		}
		if dirs.suppresses(f.Pos.Filename, f.Pos.Line, f.Check) {
			return
		}
		out = append(out, f)
	}
	// lockorder spans units: its per-unit facts feed one acquisition
	// graph, and the cycle pass runs after every unit is collected.
	var lockAll []*lockFacts
	dirsByUnit := map[*Unit]*directiveSet{}
	for _, u := range units {
		dirs := directives(u)
		dirsByUnit[u] = dirs
		var raw []Finding
		run := func(name string, fn func() []Finding) {
			if !cfg.wantCheck(name) {
				return
			}
			start := time.Now()
			raw = append(raw, fn()...)
			elapsed[name] += time.Since(start)
		}
		run("maprange", func() []Finding { return checkMapRange(u) })
		run("wallclock", func() []Finding { return checkWallClock(u, cfg.deterministicPkgs()) })
		run("globalrand", func() []Finding { return checkGlobalRand(u) })
		run("gorphan", func() []Finding { return checkGorphan(u, cfg.supervisedPkgs()) })
		run("units", func() []Finding { return checkUnits(u) })
		run("chandir", func() []Finding { return checkChanDir(u) })
		run("lockorder", func() []Finding {
			lf := lockOrderFacts(u, cfg.supervisedPkgs())
			if lf == nil {
				return nil
			}
			lockAll = append(lockAll, lf)
			return lf.findings
		})
		for _, f := range raw {
			keep(u, dirs, f)
		}
		// Malformed annotations are findings in their own right, so a
		// reasonless //mmvet:allow can never silently ship.
		for _, f := range dirs.errors {
			if u.Report(f.Pos.Filename) {
				out = append(out, f)
			}
		}
	}
	if cfg.wantCheck("lockorder") {
		// Cycle detection over the aggregated graph; each finding is
		// filtered through the directives of the unit its edge came from.
		start := time.Now()
		for _, cf := range lockOrderCycles(lockAll) {
			keep(cf.u, dirsByUnit[cf.u], cf.f)
		}
		elapsed["lockorder"] += time.Since(start)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	var timings []CheckTiming
	for _, name := range AllChecks {
		if d, ok := elapsed[name]; ok {
			timings = append(timings, CheckTiming{Check: name, Elapsed: d})
		}
	}
	return dedupe(out), timings
}

func dedupe(fs []Finding) []Finding {
	var out []Finding
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// directiveSet indexes the //mmvet: comments of one unit. A directive
// at line L suppresses matching findings on line L (trailing comment)
// and line L+1 (comment on its own line above the construct).
type directiveSet struct {
	allow  map[string]map[int][]string // file -> line -> suppressed checks
	errors []Finding
}

func directives(u *Unit) *directiveSet {
	ds := &directiveSet{allow: map[string]map[int][]string{}}
	for _, file := range u.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//mmvet:")
				if !ok {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				verb, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				rest = strings.TrimSpace(rest)
				var check, reason string
				switch verb {
				case "ordered":
					check, reason = "maprange", rest
				case "units":
					check, reason = "units", rest
				case "allow":
					check, reason, _ = strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					if !knownCheck(check) {
						ds.errors = append(ds.errors, Finding{Pos: pos, Check: "annotation",
							Message: fmt.Sprintf("//mmvet:allow names unknown check %q (want one of %s)", check, strings.Join(AllChecks, ", "))})
						continue
					}
				default:
					ds.errors = append(ds.errors, Finding{Pos: pos, Check: "annotation",
						Message: fmt.Sprintf("unknown directive //mmvet:%s (want allow, ordered, or units)", verb)})
					continue
				}
				if reason == "" {
					ds.errors = append(ds.errors, Finding{Pos: pos, Check: "annotation",
						Message: fmt.Sprintf("//mmvet:%s requires a reason", verb)})
					continue
				}
				m := ds.allow[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					ds.allow[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], check)
			}
		}
	}
	return ds
}

func (ds *directiveSet) suppresses(file string, line int, check string) bool {
	m := ds.allow[file]
	if m == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, c := range m[l] {
			if c == check {
				return true
			}
		}
	}
	return false
}

func knownCheck(name string) bool {
	for _, c := range AllChecks {
		if c == name {
			return true
		}
	}
	return false
}

// pathMatches reports whether importPath ends with (or equals) one of
// the suffix patterns, on path-segment boundaries.
func pathMatches(importPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
		// Prefix-style match for subpackages: pattern "internal/pipeline"
		// also covers ".../internal/pipeline/feeder".
		if i := strings.Index(importPath, "/"+s+"/"); i >= 0 {
			return true
		}
		if strings.HasPrefix(importPath, s+"/") {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// funcName renders a called expression for messages, e.g. "time.Now".
func funcName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return funcName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return funcName(e.X)
	default:
		return "?"
	}
}
