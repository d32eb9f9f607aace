// Package failpath exercises the failpath analyzer.
package failpath

import (
	"fmt"

	"internal/dist"
)

type algo struct{}

func (algo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	if n.ID() < 0 {
		panic("impossible id") // want `raw panic in vertex program StepWords`
	}
	func() {
		panic("closures still run inside the step") // want `raw panic in vertex program StepWords`
	}()
	n.Fail(fmt.Errorf("vertex broke")) // the first-class error path
	n.Failf("vertex %d broke", n.ID())
	//distvet:panic-ok engine-misuse guard; the program itself is broken here
	panic("sanctioned")
	panic("sanctioned inline") //distvet:panic-ok same-line directive
	panic("no reason given")   /* want "annotation requires a justification" */ //distvet:panic-ok
}

// step is not a vertex-program entry point (wrong name): raw panics are
// its own business.
func (algo) step(n *dist.Node) {
	panic("helper panic, out of scope")
}

// StepWords without a *dist.Node parameter is some other StepWords
// entirely.
type walker struct{}

func (walker) StepWords(depth int) {
	panic("not a vertex program")
}
