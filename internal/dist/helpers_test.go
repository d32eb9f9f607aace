package dist

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestTallyAccounting(t *testing.T) {
	var a Tally
	if a.Rounds() != 0 || a.Messages() != 0 || len(a.Phases()) != 0 {
		t.Fatal("zero tally not empty")
	}
	a.Merge(TallyFromPhases([]PhaseStat{{Name: "one", Rounds: 3, Messages: 10}, {Name: "two", Rounds: 4}}))

	b := TallyFromPhases([]PhaseStat{{Name: "three", Rounds: 5, Messages: 7}})
	b.Merge(&a)
	b.Merge(nil) // nil-safe

	if got, want := b.Rounds(), 5+3+4; got != want {
		t.Errorf("rounds = %d, want %d", got, want)
	}
	if got, want := b.Messages(), int64(7+10); got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
	phases := b.Phases()
	names := []string{"three", "one", "two"}
	if len(phases) != len(names) {
		t.Fatalf("phases = %v", phases)
	}
	for i, p := range phases {
		if p.Name != names[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, names[i])
		}
	}
	// Phases() must be a copy: mutating it must not corrupt the tally.
	phases[0].Rounds = 999
	if b.Rounds() != 12 {
		t.Error("Phases() exposed internal storage")
	}
	// Merge copies state, not aliasing: growing a later must not affect b.
	a.Merge(TallyFromPhases([]PhaseStat{{Name: "four", Rounds: 100}}))
	if b.Rounds() != 12 {
		t.Error("Merge aliased the source tally")
	}
}

func TestTallyWallAttribution(t *testing.T) {
	a := TallyFromPhases([]PhaseStat{
		{Name: "timed", Rounds: 2, Messages: 5, Wall: 3 * time.Millisecond, PeakLive: 100},
		{Name: "stats", Rounds: 1, Messages: 2, Wall: 2 * time.Millisecond, PeakLive: 250},
		{Name: "unattributed", Rounds: 1, Messages: 1}, // no wall attribution
	})
	if got, want := a.Wall(), 5*time.Millisecond; got != want {
		t.Errorf("wall = %v, want %v", got, want)
	}
	if got := a.PeakLive(); got != 250 {
		t.Errorf("peak live = %d, want 250", got)
	}

	// Merge must preserve the wall and peak-live fields phase by phase.
	var b Tally
	b.Merge(a)
	if b.Wall() != a.Wall() || b.PeakLive() != a.PeakLive() {
		t.Errorf("merge dropped attribution: wall %v/%v peak %d/%d",
			b.Wall(), a.Wall(), b.PeakLive(), a.PeakLive())
	}
	if b.NumPhases() != 3 {
		t.Fatalf("merged %d phases, want 3", b.NumPhases())
	}
	for i := 0; i < b.NumPhases(); i++ {
		if b.Phase(i) != a.Phase(i) {
			t.Errorf("phase %d changed across merge: %+v vs %+v", i, b.Phase(i), a.Phase(i))
		}
	}
	if b.Phase(2).Wall != 0 || b.Phase(2).PeakLive != 0 {
		t.Errorf("unattributed phase gained attribution: %+v", b.Phase(2))
	}
}

// TestWithPhase pins the phase view: phases keep the order their views
// were made in, every run on a view (or a view derived from it) charges
// its Result, a nested view charges its own phase and the enclosing one
// and labels its runs with the joined path, a failed run charges its
// partial Result, and a panic error names the path without a probe.
func TestWithPhase(t *testing.T) {
	sink := &memSink{}
	p := NewProbe(sink)
	net := NewNetwork(graph.Path(9)).WithProbe(p)
	var outer, inner Tally
	first := net.WithPhase(&outer, "first")
	second := net.WithPhase(&outer, "second")
	nested := second.WithPhase(&inner, "nested")

	stat := func(res *Result) PhaseStat {
		return PhaseStat{Rounds: res.Rounds, Messages: res.Messages, Wall: res.Wall, PeakLive: res.PeakLive}
	}
	// Runs in reverse order of the views: the phase order stays.
	r1, err := nested.WithWorkers(2).Run(gossip{rounds: 3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]PhaseStat{"nested": stat(r1)}
	r2, err := second.Run(gossip{rounds: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A budget-exhausted run charges its partial Result.
	r3, err := first.Run(chainColor{}, RunOptions{InputWords: pathInputs(9), MaxRounds: 4})
	if !errors.Is(err, ErrMaxRounds) || r3 == nil || r3.Rounds != 4 || r3.Messages == 0 {
		t.Fatalf("over-budget run: res=%+v err=%v", r3, err)
	}
	want["first"] = stat(r3)
	want["second"] = PhaseStat{
		Rounds: r1.Rounds + r2.Rounds, Messages: r1.Messages + r2.Messages,
		Wall: r1.Wall + r2.Wall, PeakLive: max(r1.PeakLive, r2.PeakLive),
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tl := range []struct {
		tally *Tally
		names []string
	}{{&outer, []string{"first", "second"}}, {&inner, []string{"nested"}}} {
		if tl.tally.NumPhases() != len(tl.names) {
			t.Fatalf("phases %+v, want %v", tl.tally.Phases(), tl.names)
		}
		for i, name := range tl.names {
			got := tl.tally.Phase(i)
			w := want[name]
			w.Name = name
			if got != w {
				t.Errorf("phase %d = %+v, want %+v", i, got, w)
			}
		}
	}
	var labels []string
	for _, rec := range sink.runs {
		labels = append(labels, rec.Phase)
	}
	if want := []string{"second/nested", "second", "first"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("run labels %q, want %q", labels, want)
	}

	// The panic label comes from the view, probed or not.
	_, err = NewNetwork(graph.Path(9)).WithPhase(&outer, "a").WithPhase(&inner, "b").
		Run(panicProg{from: 4, round: 1, rounds: 3}, RunOptions{})
	if !errors.Is(err, ErrVertexPanic) || !strings.Contains(err.Error(), `phase "a/b"`) {
		t.Fatalf("unprobed panic: %v, want phase \"a/b\"", err)
	}
	if a, b := outer.Phase(2), inner.Phase(1); a.Rounds != 1 || b.Rounds != 1 || a.Messages != b.Messages {
		t.Errorf("panicked run charged %+v and %+v, want its one round in both", a, b)
	}
}

func TestComposeLabelsDenseAndDeterministic(t *testing.T) {
	a := []int{0, 0, 1, 1, 0}
	b := []int{5, 5, 5, 7, 9}
	out := ComposeLabels(a, b)
	// Pairs: (0,5)(0,5)(1,5)(1,7)(0,9) -> first-appearance ids 0,0,1,2,3.
	if want := []int{0, 0, 1, 2, 3}; !reflect.DeepEqual(out, want) {
		t.Fatalf("ComposeLabels = %v, want %v", out, want)
	}
	if again := ComposeLabels(a, b); !reflect.DeepEqual(out, again) {
		t.Fatal("ComposeLabels not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch not rejected")
		}
	}()
	ComposeLabels([]int{1}, []int{1, 2})
}

func TestVisiblePortsFiltering(t *testing.T) {
	// K5, vertex 0: neighbors 1,2,3,4.
	g := graph.Complete(5)
	labels := []int{0, 0, 1, 0, 0}
	active := []bool{true, true, true, false, true}

	if got := VisiblePorts(g, nil, nil, 0); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("unfiltered = %v", got)
	}
	if got := VisiblePorts(g, labels, nil, 0); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Errorf("label-filtered = %v", got)
	}
	if got := VisiblePorts(g, nil, active, 0); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Errorf("active-filtered = %v", got)
	}
	if got := VisiblePorts(g, labels, active, 0); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("both-filtered = %v", got)
	}
	// Port order must match the sorted adjacency list positions.
	if got := VisiblePorts(g, labels, active, 2); len(got) != 0 {
		t.Errorf("vertex 2 (lone label) sees %v, want none", got)
	}
}

func TestComposeLabelsIntoInPlaceAndReused(t *testing.T) {
	a := []int{0, 0, 1, 1, 0}
	b := []int{5, 5, 5, 7, 9}
	want := ComposeLabels(a, b)

	// In-place refinement (dst aliases a) with a reused scratch map.
	ids := map[[2]int]int{{-1, -1}: 99} // stale entries must be cleared
	dst := append([]int(nil), a...)
	got := ComposeLabelsInto(dst, dst, b, ids)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("in-place compose = %v, want %v", got, want)
	}
	// Second use of the same map on fresh inputs.
	got2 := ComposeLabelsInto(make([]int, len(a)), a, b, ids)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("reused-map compose = %v, want %v", got2, want)
	}
}

func TestForEachVisibleMatchesVisiblePorts(t *testing.T) {
	g := graph.Complete(5)
	labels := []int{0, 0, 1, 0, 0}
	active := []bool{true, true, true, false, true}
	for _, tc := range []struct {
		labels []int
		active []bool
	}{{nil, nil}, {labels, nil}, {nil, active}, {labels, active}} {
		visited := 0
		ForEachVisible(g, tc.labels, tc.active, func(v int, ports []int) {
			if tc.active != nil && !tc.active[v] {
				t.Fatalf("inactive vertex %d visited", v)
			}
			if want := VisiblePorts(g, tc.labels, tc.active, v); !reflect.DeepEqual(append([]int{}, ports...), append([]int{}, want...)) {
				t.Fatalf("vertex %d ports = %v, want %v", v, ports, want)
			}
			visited++
		})
		wantVisited := g.N()
		if tc.active != nil {
			wantVisited = 4
		}
		if visited != wantVisited {
			t.Fatalf("visited %d vertices, want %d", visited, wantVisited)
		}
	}
}

func TestIntsFromWordsAndWordResultGuards(t *testing.T) {
	wordRes := &Result{OutputWords: []int64{4, 5, 6}}
	dst := make([]int, 3)
	if err := IntsFromWords(wordRes, dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, []int{4, 5, 6}) {
		t.Fatalf("IntsFromWords = %v", dst)
	}
	if err := IntsFromWords(wordRes, make([]int, 2)); err == nil {
		t.Error("length mismatch not rejected")
	}
	if err := IntsFromWords(&Result{}, dst); err == nil {
		t.Error("result without an output column accepted by IntsFromWords")
	}
}
