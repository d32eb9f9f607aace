package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// sameGraph compares two graphs semantically (nil and empty adjacency
// lists are both "no neighbors").
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("graphs differ: n=%d/%d m=%d/%d", a.N(), b.N(), a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d: neighbors %v vs %v", v, na, nb)
			}
		}
	}
}

func testCorpus(t *testing.T) []*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	cyc, err := Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	return []*Graph{
		NewBuilder(0).Build(),
		NewBuilder(1).Build(),
		NewBuilder(5).Build(), // isolated vertices only
		Path(2),
		cyc,
		Star(33),
		Complete(12),
		Grid(7, 9),
		ForestUnion(500, 3, rng),
		Gnp(300, 0.05, rng),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for i, g := range testCorpus(t) {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("graph %d: write: %v", i, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("graph %d: read: %v", i, err)
		}
		sameGraph(t, g, got)
	}
}

func TestBinaryRoundTripSmallShards(t *testing.T) {
	// Shard size 7 forces many shards including a short trailing one.
	rng := rand.New(rand.NewSource(72))
	g := Gnp(80, 0.1, rng)
	var buf bytes.Buffer
	if err := g.WriteBinarySharded(&buf, 7); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestTextBinaryCrossRoundTrip(t *testing.T) {
	// text -> graph -> binary -> graph -> text must be a fixed point.
	for i, g := range testCorpus(t) {
		var text1 bytes.Buffer
		if err := g.WriteEdgeList(&text1); err != nil {
			t.Fatal(err)
		}
		fromText, err := ReadEdgeList(bytes.NewReader(text1.Bytes()))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		var bin bytes.Buffer
		if err := fromText.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		fromBin, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		sameGraph(t, g, fromBin)
		var text2 bytes.Buffer
		if err := fromBin.WriteEdgeList(&text2); err != nil {
			t.Fatal(err)
		}
		if text1.String() != text2.String() {
			t.Fatalf("graph %d: text round trip not a fixed point", i)
		}
	}
}

func TestOpenBinaryAndLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := ForestUnion(200, 2, rng)
	dir := t.TempDir()

	binPath := filepath.Join(dir, "g.bin")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := OpenBinary(binPath)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)

	// LoadFile sniffs both formats.
	got, err = LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)

	textPath := filepath.Join(dir, "g.txt")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)

	if _, err := OpenBinary(textPath); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("OpenBinary on a text file: %v, want magic error", err)
	}
}

func TestReadBinaryRejectsCorruption(t *testing.T) {
	g := Grid(5, 5)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	reject := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data := append([]byte(nil), good...)
		data = mutate(data)
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	reject("bad magic", func(d []byte) []byte { d[0] = 'X'; return d })
	reject("bad version", func(d []byte) []byte { d[4] = 9; return d })
	reject("truncated header", func(d []byte) []byte { return d[:20] })
	reject("truncated records", func(d []byte) []byte { return d[:len(d)-5] })
	reject("trailing garbage", func(d []byte) []byte { return append(d, 0xff) })
	reject("impossible m", func(d []byte) []byte { d[16] = 0xff; return d })
	reject("zero shard size", func(d []byte) []byte { d[24], d[25], d[26], d[27] = 0, 0, 0, 0; return d })
	reject("self-loop", func(d []byte) []byte {
		// First record starts after the 28-byte header + 4-byte count.
		copy(d[32:40], d[36:40]) // u = v (hits the self-loop check before dedup)
		return d
	})
	reject("out-of-range endpoint", func(d []byte) []byte { d[35] = 0x7f; return d })
	reject("duplicate edge", func(d []byte) []byte {
		copy(d[40:48], d[32:40]) // second record repeats the first
		return d
	})
}

func TestReadEdgeListErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"empty", "", `empty input (no "n m" header line)`},
		{"comment only", "# nothing\n\n", `empty input`},
		{"header one field", "5\n", "line 1: malformed \"n m\" header"},
		{"header non-integer", "five 4\n", "line 1: header vertex count"},
		{"header negative", "5 -1\n", "line 1: header"},
		{"header impossible m", "3 17\n", "missing \"n m\" header line?"},
		{"edge three fields", "# c\n3 2\n0 1 9\n", "line 3: malformed edge"},
		{"edge non-integer", "3 2\n0 x\n", "line 2: edge endpoint"},
		{"edge out of range", "2 1\n0 5\n", "line 2: graph: edge (0,5) out of range"},
		{"headerless file", "0 1\n1 2\n2 3\n", "missing \"n m\" header"},
		{"self-loop", "3 1\n1 1\n", "line 2: graph: self-loop"},
		{"count mismatch", "4 3\n0 1\n", "declares m=3 edges, found 1"},
		{"duplicate collapses", "3 2\n0 1\n1 0\n", "found 1 (duplicate edges"},
	}
	for _, tc := range cases {
		_, err := ReadEdgeList(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestReadEdgeListStillAcceptsValidInput(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n\n4 3\n0 1\n# mid comment\n1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	sameGraph(t, g, Path(4))
}

// TestBinaryAllocClamps pins the allocation-bomb defenses: a forged
// header whose declared sizes could not fit the input is rejected before
// any size-proportional allocation, on both readers, seekable or not.
func TestBinaryAllocClamps(t *testing.T) {
	hdr := func(n, m uint64, shard uint32) []byte {
		b := make([]byte, 28)
		copy(b, binMagic)
		binary.LittleEndian.PutUint32(b[4:8], binVersion)
		binary.LittleEndian.PutUint64(b[8:16], n)
		binary.LittleEndian.PutUint64(b[16:24], m)
		binary.LittleEndian.PutUint32(b[24:28], shard)
		return b
	}
	rejectBoth := func(name string, data []byte, substr string) {
		t.Helper()
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: ReadBinary err=%v, want mention of %q", name, err, substr)
		}
		if _, _, err := ReadBinaryShards(bytes.NewReader(data), 2); err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: ReadBinaryShards err=%v, want mention of %q", name, err, substr)
		}
	}
	// n bomb: 28 bytes demanding gigabytes of adjacency.
	rejectBoth("unbacked n", hdr(1<<30, 0, 1<<16), "isolated-vertex allowance")
	rejectBoth("n past the slack", hdr(1<<22, 1<<8, 1<<16), "isolated-vertex allowance")
	// m bomb on a seekable input: the byte-size hint fires before the
	// payload is touched.
	rejectBoth("unbacked m", hdr(1<<20, 1<<28, 1<<16), "input holds")
	// The same forged m through a non-seekable stream still errors (the
	// chunked reader runs dry), just without the hint's message.
	if _, err := ReadBinary(bufio.NewReader(bytes.NewReader(hdr(1<<20, 1<<28, 1<<16)))); err == nil {
		t.Error("unbacked m accepted through a non-seekable stream")
	}
	// StatBinary shares the header clamps.
	if _, err := StatBinary(bytes.NewReader(hdr(1<<30, 0, 1<<16))); err == nil {
		t.Error("StatBinary accepted an unbacked n")
	}
	// At the boundary: the full slack of isolated vertices is legal and
	// round-trips.
	legal := hdr(maxBinFreeVertices, 0, 1<<16)
	g, err := ReadBinary(bytes.NewReader(legal))
	if err != nil || g.N() != maxBinFreeVertices || g.M() != 0 {
		t.Fatalf("slack-sized empty graph rejected: %v", err)
	}
	// The writer refuses graphs the readers would: no written file is
	// unloadable.
	tooSparse := NewBuilder(maxBinFreeVertices + 1).Build()
	var buf bytes.Buffer
	if err := tooSparse.WriteBinary(&buf); err == nil || !strings.Contains(err.Error(), "isolated-vertex allowance") {
		t.Errorf("WriteBinary err=%v, want isolated-vertex allowance rejection", err)
	}
}

// allocBytesPerRun reports the heap bytes f allocates per call, averaged
// over runs calls after one warm-up call.
func allocBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestBinaryReadersSmallInputAllocs pins that the DCG1 readers size
// their I/O buffers by the input: loading the 48-byte file of Path(3)
// costs kilobytes, not the 1 MiB buffer a large file gets (ReadBinary
// sizes its reader by the byte-size hint; ReadBinaryShards by the
// payload, with one reader reused across its two passes).
func TestBinaryReadersSmallInputAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := Path(3).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) != 48 {
		t.Fatalf("Path(3) encodes to %d bytes, want 48", len(data))
	}
	flat := allocBytesPerRun(50, func() {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if flat >= 16<<10 {
		t.Errorf("ReadBinary allocates %.0f B per 48-byte file, want < 16 KiB", flat)
	}
	sharded := allocBytesPerRun(50, func() {
		if _, _, err := ReadBinaryShards(bytes.NewReader(data), 2); err != nil {
			t.Fatal(err)
		}
	})
	if sharded >= 32<<10 {
		t.Errorf("ReadBinaryShards allocates %.0f B per 48-byte file, want < 32 KiB", sharded)
	}
	t.Logf("per call: ReadBinary %.0f B, ReadBinaryShards %.0f B", flat, sharded)
}

// TestSmallInputIOAllocs pins that the text reader, Load and the DCG1
// writer size their buffers by the input too: on Path(3) a ReadEdgeList,
// a Load of either form and a WriteBinary each cost kilobytes, not a
// 1 MiB buffer.
func TestSmallInputIOAllocs(t *testing.T) {
	g := Path(3)
	var text, bin bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"ReadEdgeList", func() error { _, err := ReadEdgeList(bytes.NewReader(text.Bytes())); return err }},
		{"Load text", func() error { _, err := Load(bytes.NewReader(text.Bytes())); return err }},
		{"Load DCG1", func() error { _, err := Load(bytes.NewReader(bin.Bytes())); return err }},
		{"WriteBinary", func() error { return g.WriteBinary(io.Discard) }},
	} {
		per := allocBytesPerRun(50, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if per >= 16<<10 {
			t.Errorf("%s allocates %.0f B on Path(3), want < 16 KiB", c.name, per)
		}
	}
}
