// Package distvet implements the four analyzers that enforce the coloring
// engine's compile-time-invisible invariants:
//
//   - determinism: engine packages must not read the wall clock or ambient
//     randomness, and must not let map iteration order reach ordered
//     outputs (sends, appends, positional column writes).
//   - hotalloc: functions annotated //distvet:noalloc must contain no
//     allocating constructs.
//   - wordio: fixed-width vertex programs must declare compile-time
//     constant word widths, and width-bound send/output calls must agree
//     with the declaration.
//   - failpath: vertex programs must report errors through Node.Fail, not
//     by raising raw panics from StepWords bodies.
//
// Annotations. Sanctioned exceptions are declared in source:
//
//	//distvet:wallclock <why>  - function doc or site line: sanctioned
//	                             wall-clock read (probe/tally timing).
//	//distvet:noalloc          - function doc: the hotalloc contract.
//	//distvet:alloc-ok <why>   - site line: sanctioned allocation inside
//	                             a noalloc function (e.g. pooled growth).
//	//distvet:unordered <why>  - site line: map iteration whose ordered-
//	                             looking sink is in fact order-free.
//	//distvet:panic-ok <why>   - site line: sanctioned raw panic inside a
//	                             vertex-program StepWords body.
//
// Site-line annotations attach to constructs on the same line or the line
// directly below (a directive comment of its own). Every suppression
// except noalloc must carry a justification; an empty reason is itself a
// diagnostic, so `git grep distvet:` audits every exception with its why.
package distvet

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/analysis"
)

const directivePrefix = "//distvet:"

// annot is one parsed //distvet: directive.
type annot struct {
	name   string
	reason string
	pos    token.Pos
}

// parseAnnot parses a comment's directive, if any.
func parseAnnot(c *ast.Comment) (annot, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return annot{}, false
	}
	rest := c.Text[len(directivePrefix):]
	name := rest
	reason := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	return annot{name: name, reason: reason, pos: c.Pos()}, true
}

// annots indexes every //distvet: directive of one package by file line.
type annots struct {
	fset   *token.FileSet
	byLine map[string]map[int][]annot
}

func gatherAnnots(pass *analysis.Pass) *annots {
	a := &annots{fset: pass.Fset, byLine: make(map[string]map[int][]annot)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				an, ok := parseAnnot(c)
				if !ok {
					continue
				}
				posn := pass.Fset.Position(c.Pos())
				m := a.byLine[posn.Filename]
				if m == nil {
					m = make(map[int][]annot)
					a.byLine[posn.Filename] = m
				}
				m[posn.Line] = append(m[posn.Line], an)
			}
		}
	}
	return a
}

// at returns the named directive covering pos: on the same source line, or
// on the line directly above (a standalone directive comment).
func (a *annots) at(pos token.Pos, name string) (annot, bool) {
	posn := a.fset.Position(pos)
	m := a.byLine[posn.Filename]
	for _, line := range [2]int{posn.Line, posn.Line - 1} {
		for _, an := range m[line] {
			if an.name == name {
				return an, true
			}
		}
	}
	return annot{}, false
}

// funcAnnot returns the named directive from a function's doc comment.
func funcAnnot(decl *ast.FuncDecl, name string) (annot, bool) {
	if decl.Doc == nil {
		return annot{}, false
	}
	for _, c := range decl.Doc.List {
		if an, ok := parseAnnot(c); ok && an.name == name {
			return an, true
		}
	}
	return annot{}, false
}

// checkReason reports a suppression that carries no justification and
// returns whether the suppression stands (it does either way - the
// missing reason is its own diagnostic, the original finding stays
// silenced so one fix produces one diagnostic).
func checkReason(pass *analysis.Pass, an annot) {
	if an.reason == "" {
		pass.Reportf(an.pos, "distvet:%s annotation requires a justification", an.name)
	}
}
