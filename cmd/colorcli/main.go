// Colorcli colors a graph read from an edge-list file (or stdin) and
// writes the per-vertex colors, verifying legality.
//
// Usage:
//
//	colorcli [-algo oa|tradeoff|fast|at|oneshot|linial|delta1|be08|mis|luby]
//	         [-a arboricity] [-p param] [-mu exponent] [-seed s] [file]
//
// The input is either the text edge list — "n m" on the first line then
// one "u v" edge per line (0-based), '#' comments allowed — or the DCG1
// binary format written by graphgen -binary; the loader sniffs the
// magic, and sharded DCG1 files are reported with their shard framing.
// Output: one "vertex color" line per vertex plus a summary on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/distcolor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	algo := flag.String("algo", "oa", "algorithm: oa|tradeoff|fast|at|oneshot|linial|delta1|be08|mis|luby")
	aFlag := flag.Int("a", 0, "arboricity bound (0 = estimate)")
	param := flag.Int("p", 8, "parameter p (tradeoff), g (fast) or t (at)")
	mu := flag.Float64("mu", 2.0/3.0, "round exponent mu for oa/at/mis")
	seed := flag.Int64("seed", 1, "seed (ID permutation, randomized baselines)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		path := flag.Arg(0)
		if st, err := distcolor.StatBinaryFile(path); err == nil {
			fmt.Fprintf(os.Stderr, "DCG1 input: n=%d m=%d, framed as %d streaming shards of <=%d edges\n",
				st.N, st.M, st.Shards, st.ShardSize)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	g, err := distcolor.Load(in)
	if err != nil {
		return err
	}
	opts := distcolor.Options{Seed: *seed, PermuteIDs: true}

	a := *aFlag
	if a == 0 {
		if a, err = distcolor.EstimateArboricity(g, opts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "estimated arboricity bound: %d\n", a)
	}

	var (
		res    *distcolor.Result
		misRes *distcolor.MISResult
	)
	switch *algo {
	case "oa":
		res, err = distcolor.ColorOA(g, a, *mu, opts)
	case "tradeoff":
		res, err = distcolor.ColorTradeoff(g, a, *param, opts)
	case "fast":
		res, err = distcolor.ColorFast(g, a, *param, opts)
	case "at":
		res, err = distcolor.ColorAT(g, a, *param, *mu, opts)
	case "oneshot":
		res, err = distcolor.OneShot(g, a, opts)
	case "linial":
		res, err = distcolor.Linial(g, opts)
	case "delta1":
		res, err = distcolor.DeltaPlusOne(g, opts)
	case "be08":
		res, err = distcolor.BE08(g, a, opts)
	case "mis":
		misRes, err = distcolor.MIS(g, a, *mu, opts)
	case "luby":
		misRes, err = distcolor.LubyMIS(g, opts)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}

	if misRes != nil {
		if err := distcolor.VerifyMIS(g, misRes.InMIS); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		for v, in := range misRes.InMIS {
			b := 0
			if in {
				b = 1
			}
			fmt.Printf("%d %d\n", v, b)
		}
		fmt.Fprintf(os.Stderr, "MIS: size=%d rounds=%d (verified)\n", misRes.Size, misRes.Rounds)
		return nil
	}

	if err := distcolor.VerifyLegal(g, res.Colors); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	for v, c := range res.Colors {
		fmt.Printf("%d %d\n", v, c)
	}
	fmt.Fprintf(os.Stderr, "coloring: colors=%d rounds=%d messages=%d (verified)\n",
		res.NumColors, res.Rounds, res.Messages)
	return nil
}
