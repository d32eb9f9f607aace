// Package wordio exercises the wordio analyzer against the fixture dist
// package's structurally-matched Node.
package wordio

import "internal/dist"

// Good declares constant widths and uses them consistently.
type Good struct{}

func (Good) MessageWords() int { return 1 }
func (Good) InputWidth() int   { return 0 }
func (Good) OutputWidth() int  { return 1 }

func (Good) StepWords(n *dist.Node, in dist.WordInbox) {
	n.SendAllWord(1)
	n.SendWord(0, 2)
	n.SetOutputWord(3)
}

// Wide declares 2-word messages and outputs; the 1-word helpers disagree.
type Wide struct{}

func (Wide) MessageWords() int { return 2 }
func (Wide) OutputWidth() int  { return 2 }

func (Wide) StepWords(n *dist.Node, in dist.WordInbox) {
	n.SendWord(0, 1)    // want `SendWord sends a 1-word message but Wide declares MessageWords\(\) == 2`
	n.SendAllWord(1)    // want `SendAllWord sends a 1-word message but Wide declares MessageWords\(\) == 2`
	n.SetOutputWord(3)  // want `SetOutputWord writes 1 word but Wide declares OutputWidth\(\) == 2`
	n.SetOutputWords(1) // want `SetOutputWords writes 1 words but Wide declares OutputWidth\(\) == 2`
	n.SetOutputWords(1, 2)
	w := n.SendWords(0)
	w[0], w[1] = 4, 5
}

// Runtime returns a width that depends on run-time state: the engine
// sizes columns before the run, so this cannot work.
type Runtime struct{ w int }

func (r Runtime) MessageWords() int {
	return r.w // want `MessageWords must return a compile-time constant width`
}

// Variant widths differ per variant but each return is constant: legal,
// and excluded from call-site checking.
type Variant struct{ arb bool }

func (v Variant) MessageWords() int { return 1 }

func (v Variant) InputWidth() int {
	if v.arb {
		return dist.PerPort
	}
	return 0
}

func (v Variant) StepWords(n *dist.Node, in dist.WordInbox) {
	n.SendWord(0, 7)
}

// FatByValue is a five-word program with value receivers: every
// per-vertex call would spill it past the register budget.
type FatByValue struct{ a, b, c, d, e int64 }

func (FatByValue) MessageWords() int { return 1 }

func (f FatByValue) InitWords(n *dist.Node) {} // want `InitWords has a 40-byte value receiver FatByValue, over the 32-byte register budget of the per-vertex call \(9 integer registers minus the \*Node and the 4-word inbox\); use a pointer receiver`

func (f FatByValue) StepWords(n *dist.Node, in dist.WordInbox) {} // want `StepWords has a 40-byte value receiver FatByValue`

// Width methods are called once per run, not per vertex: not reported.
func (f FatByValue) OutputWidth() int { return 1 }

// FatByPointer is the same five words behind pointer receivers: clean.
type FatByPointer struct{ a, b, c, d, e int64 }

func (*FatByPointer) MessageWords() int                           { return 1 }
func (f *FatByPointer) InitWords(n *dist.Node)                    {}
func (f *FatByPointer) StepWords(n *dist.Node, in dist.WordInbox) {}

// FourWords sits exactly at the budget: value receivers are fine.
type FourWords struct{ a, b, c, d int64 }

func (FourWords) MessageWords() int                           { return 1 }
func (f FourWords) InitWords(n *dist.Node)                    {}
func (f FourWords) StepWords(n *dist.Node, in dist.WordInbox) {}

// Generic has no size until instantiated: not reported.
type Generic[T any] struct{ v [5]T }

func (Generic[T]) MessageWords() int                           { return 1 }
func (g Generic[T]) InitWords(n *dist.Node)                    {}
func (g Generic[T]) StepWords(n *dist.Node, in dist.WordInbox) {}
