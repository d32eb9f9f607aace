package distcolor

import (
	"strings"
	"testing"

	"repro/internal/baseline"
)

const seed = 12345

func workload(t *testing.T) *Graph {
	t.Helper()
	return GenForestUnion(300, 4, seed)
}

func TestColorOAFacade(t *testing.T) {
	g := workload(t)
	res, err := ColorOA(g, 4, 2.0/3.0, Options{Seed: seed, PermuteIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.NumColors < 2 || res.Rounds < 1 || len(res.Phases) == 0 {
		t.Errorf("suspicious result: %d colors, %d rounds, %d phases",
			res.NumColors, res.Rounds, len(res.Phases))
	}
	if res.Messages <= 0 {
		t.Error("no messages counted")
	}
}

func TestTradeoffFacade(t *testing.T) {
	g := workload(t)
	for _, p := range []int{4, 8} {
		res, err := ColorTradeoff(g, 4, p, Options{Seed: seed})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := VerifyLegal(g, res.Colors); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
	if _, err := ColorTradeoff(g, 4, 3, Options{}); err == nil {
		t.Error("p=3 accepted")
	}
}

func TestOneShotColorFastColorATFacades(t *testing.T) {
	g := workload(t)
	if res, err := OneShot(g, 4, Options{}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res, err := ColorFast(g, 4, 2, Options{}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res, err := ColorAT(g, 4, 2, 0.5, Options{}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestMISFacades(t *testing.T) {
	g := workload(t)
	res, err := MIS(g, 4, 0.5, Options{Seed: seed, PermuteIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
	if res.Size < 1 {
		t.Error("empty MIS")
	}
	luby, err := LubyMIS(g, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, luby.InMIS); err != nil {
		t.Fatal(err)
	}
}

func TestDecompositionFacades(t *testing.T) {
	g := workload(t)
	hp, err := HPartition(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hp.NumLevels < 1 || hp.Degree != 9 {
		t.Errorf("hpartition: levels=%d degree=%d", hp.NumLevels, hp.Degree)
	}
	fo, err := Forests(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fo.ForestOf) != g.M() {
		t.Errorf("forests cover %d of %d edges", len(fo.ForestOf), g.M())
	}
	po, err := PartialOrient(g, 4, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if po.Deficit > 2 || po.OutDegree > 9 {
		t.Errorf("partial orientation deficit=%d outdeg=%d", po.Deficit, po.OutDegree)
	}
	co, err := CompleteOrient(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if co.Deficit != 0 {
		t.Errorf("complete orientation deficit=%d", co.Deficit)
	}
	ad, err := ArbDefective(g, 4, 2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyArbDefective(g, ad.Colors, 2*ad.Bound); err != nil {
		t.Fatal(err)
	}
	a, err := EstimateArboricity(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a < 1 || a > 8 {
		t.Errorf("estimated arboricity %d for true <= 4", a)
	}
}

func TestBaselineFacades(t *testing.T) {
	g := workload(t)
	if res, err := Linial(g, Options{}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res, err := Defective(g, 2, Options{}); err != nil {
		t.Fatal(err)
	} else if g.Defect(res.Colors) > g.MaxDegree()/2 {
		t.Error("defective bound violated")
	}
	if res, err := DeltaPlusOne(g, Options{}); err != nil {
		t.Fatal(err)
	} else if MaxColor(res.Colors) > g.MaxDegree() {
		t.Error("Delta+1 bound violated")
	}
	if res, err := BE08(g, 4, Options{}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res, err := RandomizedColoring(g, Options{Seed: 9}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	tree, parentOf := rootedTree(200)
	if res, err := ColeVishkinForest(tree, parentOf, Options{}); err != nil {
		t.Fatal(err)
	} else if err := VerifyLegal(tree, res.Colors); err != nil {
		t.Fatal(err)
	} else if res.NumColors > 3 {
		t.Error("Cole-Vishkin used more than 3 colors")
	}
}

// rootedTree returns GenTree(n, seed) with its parent array: GenTree
// attaches v to a smaller index, so v's parent is its smaller neighbor.
func rootedTree(n int) (*Graph, []int) {
	tree := GenTree(n, seed)
	parentOf := make([]int, n)
	for v := range parentOf {
		parentOf[v] = -1
		for _, u := range tree.Neighbors(v) {
			if u < v {
				parentOf[v] = u
				break
			}
		}
	}
	return tree, parentOf
}

// TestBaselineFacadesCountMessages: RandomizedColoring and
// ColeVishkinForest report the rounds and messages of the baseline run
// they wrap, on the same instance and seed.
func TestBaselineFacadesCountMessages(t *testing.T) {
	g := GenForestUnion(500, 3, 1)
	opts := Options{Seed: 1}
	rc, err := RandomizedColoring(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rcWant, err := baseline.RandomizedColoring(opts.network(g), opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Rounds != rcWant.Rounds || rc.Messages != rcWant.Messages || rc.Messages == 0 {
		t.Errorf("RandomizedColoring reports %d rounds, %d messages; the baseline run %d, %d",
			rc.Rounds, rc.Messages, rcWant.Rounds, rcWant.Messages)
	}
	tree, parentOf := rootedTree(500)
	cv, err := ColeVishkinForest(tree, parentOf, opts)
	if err != nil {
		t.Fatal(err)
	}
	cvWant, err := baseline.ColeVishkinForest(opts.network(tree), parentOf)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Rounds != cvWant.Rounds || cv.Messages != cvWant.Messages || cv.Messages == 0 {
		t.Errorf("ColeVishkinForest reports %d rounds, %d messages; the baseline run %d, %d",
			cv.Rounds, cv.Messages, cvWant.Rounds, cvWant.Messages)
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := ColorOA(nil, 1, 0.5, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := MIS(nil, 1, 0.5, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := EstimateArboricity(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestGeneratorsAndIO(t *testing.T) {
	g := GenGnp(60, 0.1, seed)
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Error("edge list round trip failed")
	}
	if GenStarForest(500, 2, 2, 100, seed).MaxDegree() < 80 {
		t.Error("star forest lacks hubs")
	}
	if GenPowerLaw(200, 3, seed).N() != 200 {
		t.Error("power law wrong size")
	}
	if GenRegular(100, 4, seed).MaxDegree() > 4 {
		t.Error("regular degree exceeded")
	}
	if GenUnitDisk(50, 10, 2, seed).N() != 50 {
		t.Error("unit disk wrong size")
	}
	if GenGrid(3, 4).N() != 12 || GenStar(5).M() != 4 || GenComplete(4).M() != 6 || GenPath(5).M() != 4 {
		t.Error("basic generators wrong")
	}
	if _, err := GenCycle(2); err == nil {
		t.Error("GenCycle(2) accepted")
	}
	if LogStar(65536) != 3 {
		t.Error("LogStar wrong")
	}
}
