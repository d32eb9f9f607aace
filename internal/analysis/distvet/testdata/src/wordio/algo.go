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

// kept is a package-level variable a program might stash a Node in.
var kept *dist.Node

// keptIDs is a package-level variable a program may write freely.
var keptIDs []int

// Keeper keeps its *dist.Node past the call in every reported form.
type Keeper struct {
	last  *dist.Node
	all   []*dist.Node
	byID  map[int]*dist.Node
	ch    chan *dist.Node
	hold  holder
	later func()
}

type holder struct{ n *dist.Node }

func (*Keeper) MessageWords() int { return 1 }

func (k *Keeper) InitWords(n *dist.Node) {
	k.last = n                       // want `InitWords stores its \*dist.Node in a struct field, which outlives the call`
	kept = n                         // want `InitWords stores its \*dist.Node in a package-level variable`
	k.all[0] = n                     // want `InitWords stores its \*dist.Node in a slice or map element`
	k.byID[n.ID()] = n               // want `InitWords stores its \*dist.Node in a slice or map element`
	n.State = n                      // want `InitWords stores its \*dist.Node in a struct field`
	k.ch <- n                        // want `InitWords sends its \*dist.Node on a channel`
	go func() { n.SendWord(0, 1) }() // want `InitWords hands its \*dist.Node to a goroutine`
}

func (k *Keeper) StepWords(n *dist.Node, in dist.WordInbox) {
	m := n
	k.all = append(k.all, m)      // want `StepWords stores its \*dist.Node in a struct field`
	k.hold = holder{n: m}         // want `StepWords stores its \*dist.Node in a struct field`
	n.State = any(m)              // want `StepWords stores its \*dist.Node in a struct field`
	k.byID[0] = (m)               // want `StepWords stores its \*dist.Node in a slice or map element`
	k.later = func() { m.Halt() } // want `StepWords stores its \*dist.Node in a struct field`
}

// User touches its *dist.Node only during the call: every form above has
// a legal counterpart.
type User struct {
	last  int
	ids   []int
	byID  map[int]int
	ch    chan int
	count int
}

func (*User) MessageWords() int { return 1 }

func (u *User) InitWords(n *dist.Node) {
	u.last = n.ID()
	keptIDs = append(keptIDs, n.ID())
	u.ids[0] = n.Degree()
	u.byID[n.ID()] = n.Round()
	n.State = u.count
	u.ch <- n.ID()
	id := n.ID()
	go func() { _ = id }()
}

func (u *User) StepWords(n *dist.Node, in dist.WordInbox) {
	m := n
	u.count += helper(m)
	visit(n)
	local := []*dist.Node{n}
	_ = local
	defer func() { m.Halt() }()
}

func helper(n *dist.Node) int { return n.ID() }

func visit(n *dist.Node) { n.SendWord(0, 1) }
