package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted substring of a `// want "..."` comment.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// runGolden loads one testdata package under importPath, analyzes it,
// and checks the findings against the file's `// want` comments: every
// want line must produce a matching finding and every finding must be
// wanted.
func runGolden(t *testing.T, name, importPath string, cfg Config) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	units, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	goldenCheck(t, units, cfg)
}

// goldenCheck matches Analyze's findings against `// want` comments in
// already-loaded units.
func goldenCheck(t *testing.T, units []*Unit, cfg Config) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key]string{}
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					wants[key{pos.Filename, pos.Line}] = m[1]
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want comments found")
	}

	matched := map[key]bool{}
	for _, f := range Analyze(units, cfg) {
		k := key{f.Pos.Filename, f.Pos.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("%s:%d: finding %q does not contain want %q", k.file, k.line, f.Message, want)
		}
		matched[k] = true
	}
	for k, want := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: wanted finding %q, got none", k.file, k.line, want)
		}
	}
}

func TestMapRangeGolden(t *testing.T) {
	runGolden(t, "maprange", "mmlab/testdata/maprange", Config{Checks: []string{"maprange"}})
}

func TestWallClockGolden(t *testing.T) {
	// Loaded under a deterministic package path so the check applies.
	runGolden(t, "wallclock", "mmlab/internal/core", Config{Checks: []string{"wallclock"}})
}

func TestWallClockOffPathIsSilent(t *testing.T) {
	dir := filepath.Join("testdata", "src", "wallclock")
	units, err := LoadDir(dir, "mmlab/internal/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Analyze(units, Config{Checks: []string{"wallclock"}}) {
		t.Errorf("wallclock fired outside deterministic packages: %s", f)
	}
}

func TestGlobalRandGolden(t *testing.T) {
	runGolden(t, "globalrand", "mmlab/testdata/globalrand", Config{Checks: []string{"globalrand"}})
}

// TestGlobalRandXrandExempt loads the golden package as internal/xrand,
// the one package that may build eager sources: only the global draws
// remain findings.
func TestGlobalRandXrandExempt(t *testing.T) {
	units, err := LoadDir(filepath.Join("testdata", "src", "globalrand"), "mmlab/internal/xrand")
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(units, Config{Checks: []string{"globalrand"}})
	for _, f := range findings {
		if strings.Contains(f.Message, "NewSource") {
			t.Errorf("NewSource flagged inside internal/xrand: %s", f)
		}
	}
	if len(findings) != 4 {
		t.Errorf("got %d findings, want the 4 global draws: %v", len(findings), findings)
	}
}

func TestGorphanGolden(t *testing.T) {
	// Loaded under the supervised pipeline path so the check applies.
	runGolden(t, "gorphan", "mmlab/internal/pipeline", Config{Checks: []string{"gorphan"}})
}

func TestUnitsGolden(t *testing.T) {
	// The client package imports a stand-in units package loaded under
	// the real internal/units suffix, so unit types resolve exactly as
	// they do in the module.
	units, err := LoadDirs("mmlab", []DirSpec{
		{Dir: filepath.Join("testdata", "src", "units", "units"), ImportPath: "mmlab/internal/units"},
		{Dir: filepath.Join("testdata", "src", "units", "client"), ImportPath: "mmlab/internal/netsim"},
	})
	if err != nil {
		t.Fatalf("LoadDirs: %v", err)
	}
	goldenCheck(t, units, Config{Checks: []string{"units"}})
}

func TestLockOrderGolden(t *testing.T) {
	// Loaded under the supervised pipeline path so the check applies.
	runGolden(t, "lockorder", "mmlab/internal/pipeline", Config{Checks: []string{"lockorder"}})
}

func TestChanDirGolden(t *testing.T) {
	runGolden(t, "chandir", "mmlab/internal/pipeline", Config{Checks: []string{"chandir"}})
}

// TestLockOrderCrossUnit seeds the two legs of a lock-order cycle in
// two different packages — the daemon locking pipeline-owned mutexes in
// the opposite order from the pipeline itself. Neither package alone
// has a cycle; only the aggregated graph does.
func TestLockOrderCrossUnit(t *testing.T) {
	pipe := writeTempPkg(t, `package pipeline

import "sync"

type Shard struct {
	Mu sync.Mutex
	N  int
}

type Agg struct {
	Mu    sync.Mutex
	Total int
}

func Flush(s *Shard, a *Agg) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	a.Mu.Lock()
	a.Total += s.N
	a.Mu.Unlock()
}
`)
	daemon := writeTempPkg(t, `package main

import "mmlab/internal/pipeline"

func report(s *pipeline.Shard, a *pipeline.Agg) int {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return a.Total + s.N
}
`)
	units, err := LoadDirs("mmlab", []DirSpec{
		{Dir: pipe, ImportPath: "mmlab/internal/pipeline"},
		{Dir: daemon, ImportPath: "mmlab/cmd/mmlabd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(units, Config{Checks: []string{"lockorder"}})
	if len(findings) != 2 {
		t.Fatalf("cross-unit inversion: got %d findings, want one per leg: %v", len(findings), findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Message, "lock order inversion") {
			t.Errorf("unexpected finding: %s", f)
		}
	}

	// The aggregated graph must hold exactly the two opposing edges.
	var facts []*lockFacts
	for _, u := range units {
		if lf := lockOrderFacts(u, DefaultSupervisedPkgs); lf != nil {
			facts = append(facts, lf)
		}
	}
	wantEdges := "(pipeline.Agg).Mu -> (pipeline.Shard).Mu\n(pipeline.Shard).Mu -> (pipeline.Agg).Mu"
	if got := lockOrderSummary(facts); got != wantEdges {
		t.Errorf("inferred edges:\n%s\nwant:\n%s", got, wantEdges)
	}

	// Either package alone must be silent: the order is only wrong in
	// combination.
	for _, spec := range []DirSpec{
		{Dir: pipe, ImportPath: "mmlab/internal/pipeline"},
	} {
		solo, err := LoadDirs("mmlab", []DirSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range Analyze(solo, Config{Checks: []string{"lockorder"}}) {
			t.Errorf("single-package analysis should be clean, got %s", f)
		}
	}
}

// TestRepoClean is the acceptance gate: mmvet over the real module must
// report zero findings beyond the committed baseline — and the
// committed baseline must be empty.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	units, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := Analyze(units, Config{})
	baseline, err := LoadBaseline(filepath.Join(root, ".mmvet-baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 0 {
		t.Errorf("committed baseline must be empty, has %d entries", len(baseline))
	}
	fresh, _ := baseline.Filter(findings, root)
	for _, f := range fresh {
		t.Errorf("finding: %s", f)
	}
}

// writeTempPkg materializes a one-file package for negative tests.
func writeTempPkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// findChecks runs all analyzers over dir-as-importPath and returns the
// set of check names that fired.
func findChecks(t *testing.T, dir, importPath string) map[string]int {
	t.Helper()
	units, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range Analyze(units, Config{}) {
		got[f.Check]++
	}
	return got
}

// TestSeededViolations seeds one fresh violation per check in a temp
// package and requires mmvet to catch each: the tool must stay capable
// of failing, or a clean repo run proves nothing.
func TestSeededViolations(t *testing.T) {
	det := writeTempPkg(t, `package det

import (
	"math/rand"
	"time"
)

func leak(m map[string]int, sink chan string) int64 {
	for k := range m {
		sink <- k
	}
	_ = rand.Intn(7)
	return time.Now().UnixMilli()
}
`)
	got := findChecks(t, det, "mmlab/internal/core")
	for _, check := range []string{"maprange", "wallclock", "globalrand"} {
		if got[check] == 0 {
			t.Errorf("seeded %s violation not caught (got %v)", check, got)
		}
	}

	pipe := writeTempPkg(t, `package pipe

import "sync"

type a struct{ mu sync.Mutex }

type b struct{ mu sync.Mutex }

func spawn(f func()) {
	go f()
}

func fwd(x *a, y *b, out chan int) {
	x.mu.Lock()
	y.mu.Lock()
	out <- 1
	y.mu.Unlock()
	x.mu.Unlock()
}

func rev(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
	y.mu.Unlock()
}

func Drain(in chan int) int {
	t := 0
	for v := range in {
		t += v
	}
	return t
}
`)
	got = findChecks(t, pipe, "mmlab/internal/pipeline")
	for _, check := range []string{"gorphan", "lockorder", "chandir"} {
		if got[check] == 0 {
			t.Errorf("seeded %s violation not caught (got %v)", check, got)
		}
	}

	// The seeded dB/dBm swap: a conversion between two unit axes.
	swap := writeTempPkg(t, `package core

import "mmlab/internal/units"

func swap(rsrp units.Dbm) units.Db {
	return units.Db(rsrp)
}
`)
	us, err := LoadDirs("mmlab", []DirSpec{
		{Dir: filepath.Join("testdata", "src", "units", "units"), ImportPath: "mmlab/internal/units"},
		{Dir: swap, ImportPath: "mmlab/internal/core"},
	})
	if err != nil {
		t.Fatal(err)
	}
	unitsHit := 0
	for _, f := range Analyze(us, Config{}) {
		if f.Check == "units" {
			unitsHit++
		}
	}
	if unitsHit == 0 {
		t.Error("seeded dB/dBm swap not caught by the units analyzer")
	}
}

// TestAnnotationContract: reasonless and malformed annotations are
// findings themselves, and a reasoned annotation suppresses exactly its
// check.
func TestAnnotationContract(t *testing.T) {
	dir := writeTempPkg(t, `package annot

func bad(m map[string]int) []string {
	var out []string
	//mmvet:ordered
	for k := range m {
		out = append(out, k)
	}
	return out
}

func unknown(m map[string]int) []string {
	var out []string
	//mmvet:allow nosuchcheck because reasons
	//mmvet:frobnicate whatever
	for k := range m {
		out = append(out, k)
	}
	return out
}

func wrongCheck(m map[string]int, sink chan string) {
	//mmvet:allow gorphan reason that names the wrong check
	for k := range m {
		sink <- k
	}
}
`)
	units, err := LoadDir(dir, "mmlab/testdata/annot")
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(units, Config{})
	var annot, maprange int
	for _, f := range findings {
		switch f.Check {
		case "annotation":
			annot++
		case "maprange":
			maprange++
		}
	}
	// bad: reasonless ordered -> 1 annotation error, loop still flagged.
	// unknown: unknown check + unknown verb -> 2 annotation errors, loop flagged.
	// wrongCheck: valid annotation for the wrong check -> loop still flagged.
	if annot != 3 {
		t.Errorf("annotation findings = %d, want 3: %v", annot, findings)
	}
	if maprange != 3 {
		t.Errorf("maprange findings = %d, want 3 (suppression must not leak across checks): %v", maprange, findings)
	}
}

// TestBaselineRoundTrip: accepted findings stop failing, new ones still do.
func TestBaselineRoundTrip(t *testing.T) {
	dir := writeTempPkg(t, `package bl

func keys(m map[string]int, sink chan string) {
	for k := range m {
		sink <- k
	}
}
`)
	units, err := LoadDir(dir, "mmlab/testdata/bl")
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(units, Config{})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}

	path := filepath.Join(t.TempDir(), "baseline")
	if err := WriteBaseline(path, findings, dir); err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, baselined := baseline.Filter(findings, dir)
	if len(fresh) != 0 || baselined != 1 {
		t.Errorf("Filter = (%v, %d), want (none, 1)", fresh, baselined)
	}

	// A different finding is not covered by the baseline.
	other := findings[0]
	other.Message = "something new"
	fresh, _ = baseline.Filter([]Finding{other}, dir)
	if len(fresh) != 1 {
		t.Errorf("new finding suppressed by unrelated baseline entry")
	}

	// Missing baseline file reads as empty.
	empty, err := LoadBaseline(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(empty) != 0 {
		t.Errorf("missing baseline: (%v, %v), want empty, nil", empty, err)
	}
}
