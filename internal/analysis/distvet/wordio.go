package distvet

import (
	"go/ast"
	"go/constant"
	"go/token"
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
//
// It also reports InitWords/StepWords methods whose value receiver is
// wider than maxStepReceiver: such a receiver is copied through the
// stack on every per-vertex call, so those programs take pointer
// receivers.
//
// Finally, it reports InitWords/StepWords statements that keep the
// *dist.Node past the call (checkKeptNode): the engine re-points one Node
// per step chunk at every vertex it steps, so a kept pointer silently
// names another vertex on the next step.
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
	checkStepMethods(pass)
	return nil
}

// maxStepReceiver is the widest value receiver of a per-vertex call that
// still travels in registers: 9 integer argument registers (amd64 ABI)
// minus the *Node and the 4-word WordInbox leave 4 words.
const maxStepReceiver = 4 * 8

// amd64Sizes measures receivers as the gc compiler lays them out on
// amd64, the platform the register budget is stated for.
var amd64Sizes = types.SizesFor("gc", "amd64")

// checkStepMethods checks the per-vertex dist.Algorithm calls
// (InitWords/StepWords): the body must not keep its *dist.Node, and a
// value receiver must fit maxStepReceiver.
func checkStepMethods(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok || !isStepSignature(fn.Name.Name, obj.Type().(*types.Signature)) {
				continue
			}
			sig := obj.Type().(*types.Signature)
			checkKeptNode(pass, fn, sig.Params().At(0))
			recv := sig.Recv().Type()
			if _, ptr := recv.(*types.Pointer); ptr {
				continue
			}
			if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // sized per instantiation
			}
			if size := amd64Sizes.Sizeof(recv); size > maxStepReceiver {
				pass.Reportf(fn.Name.Pos(), "%s has a %d-byte value receiver %s, over the %d-byte register budget of the per-vertex call (9 integer registers minus the *Node and the 4-word inbox); use a pointer receiver",
					fn.Name.Name, size, types.TypeString(recv, types.RelativeTo(pass.Pkg)), maxStepReceiver)
			}
		}
	}
}

// checkKeptNode reports the statements of a step body that keep its
// *dist.Node - the parameter, or a local assigned a value holding it -
// past the call: a store into a struct field (Node.State included), a
// package-level variable or a slice or map element, a channel send, or a
// go statement. Passing the Node to a helper is legal.
func checkKeptNode(pass *analysis.Pass, fn *ast.FuncDecl, node *types.Var) {
	if fn.Body == nil {
		return
	}
	info := pass.TypesInfo
	alias := map[types.Object]bool{node: true}
	mentions := func(n ast.Node) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || ok && alias[info.Uses[id]]
			return !found
		})
		return found
	}
	// holds reports whether the value of e is or contains the Node: an
	// alias (converted or not), or a composite literal, address-of,
	// append or closure holding one. Any other call's result does not.
	var holds func(e ast.Expr) bool
	holds = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return alias[info.Uses[e]]
		case *ast.UnaryExpr:
			return e.Op == token.AND && holds(e.X)
		case *ast.FuncLit:
			return mentions(e.Body)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if holds(elt) {
					return true
				}
			}
		case *ast.CallExpr:
			if info.Types[e.Fun].IsType() {
				return len(e.Args) == 1 && holds(e.Args[0])
			}
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("append") {
				for _, a := range e.Args[1:] {
					if holds(a) {
						return true
					}
				}
			}
		}
		return false
	}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s %s, which outlives the call: the engine re-points the Node at another vertex after it returns (keep per-vertex state in the word columns)", fn.Name.Name, what)
	}
	// One pass in source order: a local joins the aliases when assigned.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if len(st.Rhs) != len(st.Lhs) || !holds(st.Rhs[i]) {
					continue
				}
				if where := keptIn(info, lhs); where != "" {
					report(st.Pos(), "stores its *dist.Node in "+where)
				} else if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					alias[info.ObjectOf(id)] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) && holds(st.Values[i]) {
					alias[info.Defs[name]] = true
				}
			}
		case *ast.SendStmt:
			if holds(st.Value) {
				report(st.Pos(), "sends its *dist.Node on a channel")
			}
		case *ast.GoStmt:
			if mentions(st.Call) {
				report(st.Pos(), "hands its *dist.Node to a goroutine")
			}
		}
		return true
	})
}

// keptIn names where a value stored into lhs outlives the call, or
// returns "" for a local variable.
func keptIn(info *types.Info, lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return "a slice or map element"
	case *ast.SelectorExpr:
		if info.Selections[lhs] != nil {
			return "a struct field" // Node.State included
		}
		return keptIn(info, lhs.Sel) // a qualified package variable
	case *ast.Ident:
		if v, ok := info.ObjectOf(lhs).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "a package-level variable"
		}
	}
	return ""
}

// isStepSignature reports whether a method is one of the per-vertex
// dist.Algorithm calls: InitWords(*dist.Node) or
// StepWords(*dist.Node, dist.WordInbox), without results.
func isStepSignature(name string, sig *types.Signature) bool {
	params := sig.Params()
	if sig.Results().Len() != 0 || params.Len() == 0 {
		return false
	}
	ptr, ok := params.At(0).Type().(*types.Pointer)
	if !ok || !isDistNamed(ptr.Elem(), "Node") {
		return false
	}
	switch name {
	case "InitWords":
		return params.Len() == 1
	case "StepWords":
		return params.Len() == 2 && isDistNamed(params.At(1).Type(), "WordInbox")
	}
	return false
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
	return isDistNamed(t, "Node")
}

// isDistNamed reports whether t is the named type `name` of a package
// whose path ends in "internal/dist" (the engine or its fixture stand-in).
func isDistNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/dist" || strings.HasSuffix(path, "/internal/dist")
}
