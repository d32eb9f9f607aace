package distvet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// FailPathAnalyzer enforces the first-class error path of vertex
// programs: it flags raw panic(...) calls in StepWords bodies. The engine
// contains a vertex-program panic, but the report is an engine abort
// (ErrVertexPanic) rather than the program's own diagnosis.
//
// The replacement is Node.Fail/Failf, which records the error in the
// per-run slot (smallest failing vertex wins, deterministically) and
// aborts the run at the end of the round. A panic that
// is genuinely the right tool (an invariant whose violation means the
// program itself is broken) is sanctioned in place:
//
//	//distvet:panic-ok <why>
//
// on the panic's line or the line above.
var FailPathAnalyzer = &analysis.Analyzer{
	Name: "failpath",
	Doc:  "flag raw panics in vertex-program steps instead of Node.Fail",
	Run:  runFailPath,
}

func runFailPath(pass *analysis.Pass) error {
	ann := gatherAnnots(pass)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || decl.Name.Name != "StepWords" {
				continue
			}
			if !hasNodeParam(pass, decl) {
				continue
			}
			checkStepPanics(pass, ann, decl)
		}
	}
	return nil
}

// checkStepPanics flags raw panic calls in one vertex-program step body
// (closures included - they still run inside the step).
func checkStepPanics(pass *analysis.Pass, ann *annots, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[id]; !ok || obj != types.Universe.Lookup("panic") {
			return true // a shadowed panic is someone else's problem
		}
		if an, ok := ann.at(call.Pos(), "panic-ok"); ok {
			checkReason(pass, an)
			return true
		}
		pass.Reportf(call.Pos(), "raw panic in vertex program %s (the engine contains it, but the run reports an engine abort, not your diagnosis); use n.Fail(err) / n.Failf, or sanction with //distvet:panic-ok <why>", decl.Name.Name)
		return true
	})
}

// hasNodeParam reports whether decl takes a *dist.Node parameter - the
// signature shape marking it a vertex-program entry point.
func hasNodeParam(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	for _, field := range decl.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if ok && isNodeType(tv.Type) {
			return true
		}
	}
	return false
}

// isNodeType reports whether t is dist.Node or a pointer to it.
func isNodeType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Node" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/dist" || isSuffix(path, "/internal/dist")
}

func isSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
