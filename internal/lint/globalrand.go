package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// globalRandOK are the math/rand package-level functions that do NOT
// draw from the process-global source: constructors for injectable
// generators.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// eagerSourceOK are the packages allowed to call math/rand's NewSource in
// non-test code: internal/xrand, which reproduces its stream lazily, and
// the mmbench harness, a separate module that must keep building against
// checkouts older than internal/xrand.
var eagerSourceOK = []string{"internal/xrand", "mmbench"}

// checkGlobalRand bans package-level math/rand draws everywhere,
// tests included: the global source is seeded per-process, so anything
// it feeds cannot be replayed. Randomness must flow from a seeded
// *rand.Rand handed in by the caller (see sim.DeriveSeed). It also bans
// math/rand's NewSource in non-test code outside eagerSourceOK: its eager
// 607-word seeding dominated world building, and xrand.New yields the
// same stream without it.
func checkGlobalRand(u *Unit) []Finding {
	var out []Finding
	eagerOK := pathMatches(u.ImportPath, eagerSourceOK)
	for _, file := range u.Files {
		eagerBanned := !eagerOK && !isTestFile(u.Fset, file.Pos())
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := u.Info.Uses[sel.Sel]
			if !ok || obj.Pkg() == nil {
				return true
			}
			path := obj.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			if !isFunc {
				return true
			}
			if eagerBanned && path == "math/rand" && fn.Name() == "NewSource" {
				out = append(out, Finding{
					Pos:     u.Fset.Position(sel.Pos()),
					Check:   "globalrand",
					Message: "math/rand's NewSource seeds all 607 words eagerly; use xrand.New(seed) for the same stream",
				})
				return true
			}
			if globalRandOK[fn.Name()] {
				return true
			}
			// Methods on *rand.Rand arrive as selections on a value, not
			// package-level uses; only flag package-qualified calls.
			if pkgOf(u, sel) == "" {
				return true
			}
			out = append(out, Finding{
				Pos:   u.Fset.Position(sel.Pos()),
				Check: "globalrand",
				Message: fmt.Sprintf("%s.%s draws from the process-global source; inject a seeded *rand.Rand instead",
					path, fn.Name()),
			})
			return true
		})
	}
	return out
}
