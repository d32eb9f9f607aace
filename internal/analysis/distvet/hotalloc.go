package distvet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// HotAllocAnalyzer enforces the zero-allocation contract of functions
// annotated //distvet:noalloc: the engine's round loop, recolorOnce and
// every dist.Algorithm step implementation. It is a syntactic gate - the
// escape-analysis companion (cmd/escapecheck) verifies the compiler
// agrees - so it flags allocating CONSTRUCTS rather than proven heap
// allocations:
//
//   - make, new, append and slice/map composite literals (a value struct
//     literal is stack state and stays legal);
//   - &composite{} (heap once it escapes - which escapecheck decides;
//     here it is flagged so the escape question is answered explicitly);
//   - function literals (closure environments allocate once captured);
//   - allocating conversions: interface conversions and the
//     string <-> []byte/[]rune family;
//   - assignments that box a concrete value into an interface-typed
//     location (the pre-word-plane []any idiom);
//   - calls into known allocators (fmt.Sprintf/Sprint/Sprintln/Errorf,
//     errors.New, strconv.Itoa/FormatInt/Quote).
//
// Blocks that unconditionally end in panic are exempt: the engine's
// guard panics format their message on the way out of a broken program,
// which is not a hot path. Individual sanctioned sites (pooled growth,
// amortized append into reusable scratch) carry //distvet:alloc-ok <why>.
var HotAllocAnalyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocating constructs inside //distvet:noalloc functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) error {
	an := gatherAnnots(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := funcAnnot(fn, "noalloc"); !ok {
				continue
			}
			ha := &hotAllocCheck{pass: pass, an: an}
			ha.stmt(fn.Body)
		}
	}
	return nil
}

type hotAllocCheck struct {
	pass *analysis.Pass
	an   *annots
}

// flag reports an allocating construct unless an alloc-ok annotation
// covers its line.
func (h *hotAllocCheck) flag(n ast.Node, format string, args ...any) {
	if a, ok := h.an.at(n.Pos(), "alloc-ok"); ok {
		checkReason(h.pass, a)
		return
	}
	h.pass.Reportf(n.Pos(), "noalloc function "+format, args...)
}

// endsInPanic reports whether a block's last statement is a panic call:
// such blocks are cold guard paths and exempt from the contract.
func endsInPanic(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// stmt walks statements, skipping panic-terminated blocks.
func (h *hotAllocCheck) stmt(s ast.Stmt) {
	if b, ok := s.(*ast.BlockStmt); ok && endsInPanic(b) {
		return
	}
	ast.Inspect(s, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.BlockStmt:
			if endsInPanic(n) {
				return false
			}
		case *ast.AssignStmt:
			h.assign(n)
		case *ast.CallExpr:
			h.call(n)
		case *ast.CompositeLit:
			h.composite(n, false)
			return false // inner literals are part of this one
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if cl, ok := n.X.(*ast.CompositeLit); ok {
					h.composite(cl, true)
					return false
				}
			}
		case *ast.FuncLit:
			h.flag(n, "contains a function literal (closures allocate their environment once captured)")
			return false // the literal's body lives on another stack
		}
		return true
	})
}

func (h *hotAllocCheck) assign(n *ast.AssignStmt) {
	if n.Tok.String() == ":=" {
		return // a definition's type is the RHS type; no boxing happens
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break // x, y = f() - conversions happen inside f
		}
		lt, ok := h.pass.TypesInfo.Types[lhs]
		if !ok {
			continue
		}
		if _, isIface := lt.Type.Underlying().(*types.Interface); !isIface {
			continue
		}
		rt, ok := h.pass.TypesInfo.Types[n.Rhs[i]]
		if !ok {
			continue
		}
		if rt.IsNil() {
			continue
		}
		if _, rIface := rt.Type.Underlying().(*types.Interface); rIface {
			continue
		}
		if isPointerLike(rt.Type) {
			continue // pointer-shaped values box without heap allocation
		}
		h.flag(n, "boxes a %s into an interface-typed location", rt.Type)
	}
}

// isPointerLike reports types whose interface representation stores the
// value directly in the data word - boxing them performs no allocation.
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func (h *hotAllocCheck) call(n *ast.CallExpr) {
	switch fun := n.Fun.(type) {
	case *ast.Ident:
		if b, ok := h.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				h.flag(n, "calls make")
			case "new":
				h.flag(n, "calls new")
			case "append":
				h.flag(n, "calls append (growth allocates; pre-size the buffer or annotate amortized growth with //distvet:alloc-ok <why>)")
			}
			return
		}
	case *ast.SelectorExpr:
		if h.knownAllocator(fun) {
			h.flag(n, "calls allocating helper %s.%s", exprString(fun.X), fun.Sel.Name)
			return
		}
	}
	// Conversions: T(x) where T is a type.
	if tv, ok := h.pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
		h.conversion(n, tv.Type)
	}
}

var allocatorFuncs = map[string]map[string]bool{
	"fmt":     {"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true, "Appendf": true},
	"errors":  {"New": true},
	"strconv": {"Itoa": true, "FormatInt": true, "Quote": true, "FormatFloat": true},
}

func (h *hotAllocCheck) knownAllocator(sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := h.pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	return allocatorFuncs[pn.Imported().Path()][sel.Sel.Name]
}

func (h *hotAllocCheck) conversion(n *ast.CallExpr, to types.Type) {
	fromTV, ok := h.pass.TypesInfo.Types[n.Args[0]]
	if !ok {
		return
	}
	from := fromTV.Type
	if _, isIface := to.Underlying().(*types.Interface); isIface {
		if _, fromIface := from.Underlying().(*types.Interface); !fromIface && !fromTV.IsNil() && !isPointerLike(from) {
			h.flag(n, "converts %s to interface %s (boxing)", from, to)
		}
		return
	}
	toB, toIsBasic := to.Underlying().(*types.Basic)
	fromB, fromIsBasic := from.Underlying().(*types.Basic)
	toSlice, toIsSlice := to.Underlying().(*types.Slice)
	fromSlice, fromIsSlice := from.Underlying().(*types.Slice)
	isStr := func(b *types.Basic, ok bool) bool { return ok && b.Info()&types.IsString != 0 }
	isByteOrRune := func(s *types.Slice, ok bool) bool {
		if !ok {
			return false
		}
		b, bok := s.Elem().Underlying().(*types.Basic)
		return bok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	switch {
	case isStr(toB, toIsBasic) && isByteOrRune(fromSlice, fromIsSlice):
		h.flag(n, "converts %s to string (copies and allocates)", from)
	case isByteOrRune(toSlice, toIsSlice) && isStr(fromB, fromIsBasic):
		h.flag(n, "converts string to %s (copies and allocates)", to)
	case isStr(toB, toIsBasic) && fromIsBasic && fromB.Info()&types.IsInteger != 0 && fromTV.Value == nil:
		h.flag(n, "converts %s to string (allocates a rune string)", from)
	}
}

func (h *hotAllocCheck) composite(n *ast.CompositeLit, addressed bool) {
	tv, ok := h.pass.TypesInfo.Types[n]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		h.flag(n, "contains a slice literal (allocates backing storage)")
	case *types.Map:
		h.flag(n, "contains a map literal")
	default:
		if addressed {
			h.flag(n, "takes the address of a composite literal (heap-allocates once it escapes)")
		}
		// A plain value struct/array literal is stack state: legal.
	}
	// Still check nested expressions (element values may allocate).
	for _, elt := range n.Elts {
		ast.Inspect(elt, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.CallExpr:
				h.call(e)
			case *ast.CompositeLit:
				h.composite(e, false)
				return false
			case *ast.FuncLit:
				h.flag(e, "contains a function literal (closures allocate their environment once captured)")
				return false
			}
			return true
		})
	}
}

// exprString renders simple expressions for messages.
func exprString(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
