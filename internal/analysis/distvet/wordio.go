package distvet

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// WordIOAnalyzer enforces the engine's fixed-width word contract: a
// vertex program's declared widths (MessageWords, InputWidth,
// OutputWidth - the dist.Algorithm shape) must be compile-time
// constants, and the width-bound dist.Node calls inside the program's
// methods must agree with the declaration:
//
//   - SendWord / SendAllWord require MessageWords() == 1;
//   - SetOutputWord requires OutputWidth() == 1;
//   - SetOutputWords(a, b, ...) with k explicit arguments requires
//     OutputWidth() == k.
//
// "Compile-time constant" means every return expression of a width
// method has a constant value (distinct constants per variant - e.g.
// PerPort for one flavor, 0 for another - are fine; the engine requires
// only that the width not depend on run-time state). Width methods whose
// variants disagree are excluded from call-site checking.
var WordIOAnalyzer = &analysis.Analyzer{
	Name: "wordio",
	Doc:  "check fixed-width vertex programs declare constant widths and use them consistently",
	Run:  runWordIO,
}

// widthMethods maps declared width method names to a short role label.
var widthMethods = map[string]string{
	"MessageWords": "message",
	"InputWidth":   "input",
	"OutputWidth":  "output",
}

func runWordIO(pass *analysis.Pass) error {
	// Pass 1: find width methods, check constancy, record the unique
	// constant width per (receiver type, method).
	type widthKey struct {
		recv   types.Object
		method string
	}
	widths := make(map[widthKey]int64)
	known := make(map[widthKey]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if _, ok := widthMethods[fn.Name.Name]; !ok {
				continue
			}
			if !isWidthSignature(pass, fn) {
				continue
			}
			recv := recvTypeObj(pass, fn)
			if recv == nil {
				continue
			}
			uniform := true
			var value int64
			seen := false
			ast.Inspect(fn.Body, func(node ast.Node) bool {
				if _, ok := node.(*ast.FuncLit); ok {
					return false
				}
				ret, ok := node.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				tv, ok := pass.TypesInfo.Types[ret.Results[0]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
					pass.Reportf(ret.Pos(), "%s must return a compile-time constant width (the engine sizes columns from it before the run)", fn.Name.Name)
					uniform = false
					return true
				}
				v, _ := constant.Int64Val(tv.Value)
				if seen && v != value {
					uniform = false // per-variant constants: constant, but not call-site checkable
				}
				value, seen = v, true
				return true
			})
			if seen && uniform {
				k := widthKey{recv, fn.Name.Name}
				widths[k] = value
				known[k] = true
			}
		}
	}

	// Pass 2: check width-bound dist.Node call sites inside methods of
	// types with known widths.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv := recvTypeObj(pass, fn)
			if recv == nil {
				continue
			}
			msgW, hasMsgW := widths[widthKey{recv, "MessageWords"}], known[widthKey{recv, "MessageWords"}]
			outW, hasOutW := widths[widthKey{recv, "OutputWidth"}], known[widthKey{recv, "OutputWidth"}]
			if !hasMsgW && !hasOutW {
				continue
			}
			ast.Inspect(fn.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !isNodeMethod(pass, sel) {
					return true
				}
				switch sel.Sel.Name {
				case "SendWord", "SendAllWord":
					if hasMsgW && msgW != 1 {
						pass.Reportf(call.Pos(), "%s sends a 1-word message but %s declares MessageWords() == %d (use SendWords)", sel.Sel.Name, recv.Name(), msgW)
					}
				case "SetOutputWord":
					if hasOutW && outW != 1 {
						pass.Reportf(call.Pos(), "SetOutputWord writes 1 word but %s declares OutputWidth() == %d (use SetOutputWords)", recv.Name(), outW)
					}
				case "SetOutputWords":
					if hasOutW && outW >= 0 && call.Ellipsis == 0 && int64(len(call.Args)) != outW {
						pass.Reportf(call.Pos(), "SetOutputWords writes %d words but %s declares OutputWidth() == %d", len(call.Args), recv.Name(), outW)
					}
				}
				return true
			})
		}
	}
	return nil
}

// isWidthSignature reports whether fn is `func() int`.
func isWidthSignature(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fn.Name]
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// recvTypeObj returns the type object of a method's receiver base type.
func recvTypeObj(pass *analysis.Pass, fn *ast.FuncDecl) types.Object {
	if len(fn.Recv.List) != 1 {
		return nil
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic instantiations (T[P]).
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// isNodeMethod reports whether sel selects a method on dist.Node (the
// engine's per-vertex handle), identified structurally: a named type
// Node from a package whose path ends in "internal/dist".
func isNodeMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
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
	return path == "internal/dist" || strings.HasSuffix(path, "/internal/dist")
}
