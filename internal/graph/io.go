package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in a plain edge-list format:
// first line "n m", then one "u v" line per edge (0-based).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.n, g.m); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Blank lines and
// lines starting with '#' are ignored. The first non-comment line MUST be
// the "n m" header; because a headerless file's first edge is
// syntactically indistinguishable from a header, the parser validates the
// header's plausibility up front and names the header line in every
// downstream inconsistency, instead of silently sizing the builder from
// an edge. All errors carry 1-based line numbers.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // starts small, grows to a 1 MiB line cap
	var b *Builder
	declaredN, declaredM := 0, -1
	headerLine := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			// Header line.
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed \"n m\" header %q (want two integers)", lineNo, line)
			}
			nv, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: header vertex count %q: %v", lineNo, fields[0], err)
			}
			mv, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: header edge count %q: %v", lineNo, fields[1], err)
			}
			if nv < 0 || mv < 0 {
				return nil, fmt.Errorf("graph: line %d: header %q declares negative sizes", lineNo, line)
			}
			if nv <= maxBinVertices && int64(mv) > int64(nv)*int64(nv-1)/2 {
				return nil, fmt.Errorf("graph: line %d: header declares m=%d edges but n=%d admits at most %d; missing \"n m\" header line?",
					lineNo, mv, nv, int64(nv)*int64(nv-1)/2)
			}
			b = NewBuilder(nv)
			declaredN, declaredM, headerLine = nv, mv, lineNo
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: malformed edge %q (want \"u v\")", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: edge endpoint %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: edge endpoint %q: %v", lineNo, fields[1], err)
		}
		if err := b.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v (header at line %d declared n=%d; a missing header would make the first edge act as one)",
				lineNo, err, headerLine, declaredN)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: line %d: %w", lineNo+1, err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input (no \"n m\" header line)")
	}
	g := b.Build()
	if g.M() != declaredM {
		return nil, fmt.Errorf("graph: header at line %d declares m=%d edges, found %d (duplicate edges, truncated file, or missing \"n m\" header?)",
			headerLine, declaredM, g.M())
	}
	return g, nil
}
