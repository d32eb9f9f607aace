package distvet

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// enginePackages are the import-path suffixes of the packages whose
// execution must be deterministic and clock-free: the LOCAL-model engine
// and the pipeline phases that run inside it. The harness (cmd/*,
// internal/experiments, internal/obs) injects clocks and seeds from the
// outside; these packages may only receive them as values.
var enginePackages = []string{
	"internal/dist",
	"internal/recolor",
	"internal/forest",
	"internal/reduce",
	"internal/deltacolor",
	"internal/orient",
	"internal/field",
	"internal/graph",
}

func isEnginePackage(path string) bool {
	for _, suffix := range enginePackages {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// DeterminismAnalyzer enforces the engine's determinism contract: results
// must be a pure function of (graph, identifiers, inputs), independent of
// wall clock, ambient randomness, worker count and map iteration order.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: `forbid nondeterminism sources in engine packages

Inside the engine packages (internal/dist, recolor, forest, reduce,
deltacolor, orient, field, graph) this analyzer flags:

  - calls to time.Now / time.Since, unless the site or its enclosing
    function carries //distvet:wallclock <why> (the sanctioned probe and
    Result.Wall timing sites, explicitly non-deterministic);
  - any package-level use of math/rand or math/rand/v2 (using an
    injected *rand.Rand value is fine - the caller owns the seed; naming
    the package is not);
  - range over a map whose body feeds ordered output: message sends,
    appends to variables declared outside the loop, or writes through a
    positional index not derived from the iteration key. Annotate truly
    order-free iterations with //distvet:unordered <why>.`,
	Run: runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	if !isEnginePackage(pass.Pkg.Path()) {
		return nil
	}
	an := gatherAnnots(pass)
	for _, file := range pass.Files {
		// Walk per declaration so every node knows its enclosing function
		// (for function-level wallclock annotations).
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(node ast.Node) bool {
				switch n := node.(type) {
				case *ast.SelectorExpr:
					checkClockAndRand(pass, an, fn, n)
				case *ast.RangeStmt:
					checkMapRange(pass, an, n)
				}
				return true
			})
		}
	}
	return nil
}

// pkgQualified reports whether sel is a package-qualified reference
// pkg.Name to the package with the given import path, returning the
// referenced object.
func pkgQualified(pass *analysis.Pass, sel *ast.SelectorExpr, path string) (types.Object, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != path {
		return nil, false
	}
	return pass.TypesInfo.Uses[sel.Sel], true
}

func checkClockAndRand(pass *analysis.Pass, an *annots, fn *ast.FuncDecl, sel *ast.SelectorExpr) {
	if obj, ok := pkgQualified(pass, sel, "time"); ok {
		name := sel.Sel.Name
		if name != "Now" && name != "Since" {
			return
		}
		if a, ok := an.at(sel.Pos(), "wallclock"); ok {
			checkReason(pass, a)
			return
		}
		if fn != nil {
			if a, ok := funcAnnot(fn, "wallclock"); ok {
				checkReason(pass, a)
				return
			}
		}
		_ = obj
		pass.Reportf(sel.Pos(), "engine code reads the wall clock (time.%s); the harness injects the clock - annotate sanctioned probe/tally timing with //distvet:wallclock <why>", name)
		return
	}
	for _, randPath := range []string{"math/rand", "math/rand/v2"} {
		if obj, ok := pkgQualified(pass, sel, randPath); ok {
			if _, isType := obj.(*types.TypeName); isType {
				return // naming the rand.Rand type (an injected value) is fine
			}
			pass.Reportf(sel.Pos(), "engine code uses ambient randomness (%s.%s); randomness must be injected by the harness as a value", randPath, sel.Sel.Name)
			return
		}
	}
}

// sendNames are the Node methods that emit ordered output: messages and
// positional output-column writes.
var sendNames = map[string]bool{
	"Send": true, "SendAll": true,
	"SendWord": true, "SendWords": true, "SendAllWord": true,
	"SetOutputWord": true, "SetOutputWords": true,
}

func checkMapRange(pass *analysis.Pass, an *annots, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if a, ok := an.at(rng.Pos(), "unordered"); ok {
		checkReason(pass, a)
		return
	}
	// The iteration variables: writes indexed (only) by them are
	// per-key slots, hence order-independent.
	iterVars := make(map[types.Object]bool)
	for _, e := range [2]ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				iterVars[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				iterVars[obj] = true
			}
		}
	}
	declaredInside := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false // selectors, indexes: conservatively outer state
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if obj == nil {
			return true
		}
		return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	usesOnlyIterVars := func(e ast.Expr) bool {
		pure := true
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := pass.TypesInfo.Uses[id]
				if obj == nil {
					return true
				}
				switch obj.(type) {
				case *types.Var:
					if !iterVars[obj] && !(obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
						pure = false
					}
				}
			}
			return true
		})
		return pure
	}

	ast.Inspect(rng.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sendNames[sel.Sel.Name] {
				if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod {
					pass.Reportf(n.Pos(), "map iteration feeds %s: message order would depend on map order; iterate a deterministic index instead", sel.Sel.Name)
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					if root := rootExpr(n.Args[0]); root == nil || !declaredInside(root) {
						pass.Reportf(n.Pos(), "map iteration appends to a slice declared outside the loop: element order would depend on map order")
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				tv, ok := pass.TypesInfo.Types[ix.X]
				if !ok {
					continue
				}
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array:
				default:
					continue // map/per-key writes are order-free
				}
				if root := rootExpr(ix.X); root != nil && declaredInside(root) {
					continue
				}
				if usesOnlyIterVars(ix.Index) {
					continue // out[k] = ...: each key owns its slot
				}
				pass.Reportf(n.Pos(), "map iteration writes through a positional index not derived from the key: slot contents would depend on map order")
			}
		}
		return true
	})
}

// rootExpr returns the root identifier of a chain of selector/index
// expressions, or nil when the base is not an identifier.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
