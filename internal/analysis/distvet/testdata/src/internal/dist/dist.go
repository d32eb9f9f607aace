// Package dist is a minimal stand-in for the engine's dist package: the
// analyzers identify dist.Node structurally (a named type Node in a
// package whose import path ends in "internal/dist"), so this fixture
// satisfies the same match without importing the real engine.
package dist

// Node is the fixture vertex handle.
type Node struct {
	State any
}

func (n *Node) ID() int                          { return 0 }
func (n *Node) Degree() int                      { return 0 }
func (n *Node) Round() int                       { return 0 }
func (n *Node) Halt()                            {}
func (n *Node) SendWord(port int, w int64)       {}
func (n *Node) SendWords(port int) []int64       { return nil }
func (n *Node) SendAllWord(w int64)              {}
func (n *Node) SetOutputWord(w int64)            {}
func (n *Node) SetOutputWords(ws ...int64)       {}
func (n *Node) Fail(err error)                   {}
func (n *Node) Failf(format string, args ...any) {}
func (n *Node) InputWords() []int64              { return nil }
func (n *Node) OutputWords() []int64             { return nil }

// WordInbox is the fixture word-plane inbox view.
type WordInbox struct{}

func (in WordInbox) Ports() int          { return 0 }
func (in WordInbox) Has(p int) bool      { return false }
func (in WordInbox) Word(p int) int64    { return 0 }
func (in WordInbox) Words(p int) []int64 { return nil }

// PerPort mirrors the engine's per-port width sentinel.
const PerPort = -1
