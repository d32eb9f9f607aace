// Colortrace summarizes a round-level JSONL trace recorded by
// `colorbench -scale -trace out.jsonl`: a per-phase table (engine runs,
// rounds, messages per round, wall and setup time, live-set decay,
// step-sweep imbalance, session cache hits), a per-shard table when the
// trace carries sharded-run telemetry (peak live, messages and step-wall
// share per shard - the imbalance view of a sharded engine), and the
// field-evaluation hit-rate table when the trace carries an "evals"
// snapshot.
//
// Usage:
//
//	colortrace trace.jsonl
//	colortrace -runs trace.jsonl   # also dump every run record
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	dumpRuns := flag.Bool("runs", false, "also list every run record")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: colortrace [-runs] trace.jsonl")
	}
	tr, err := obs.ReadTraceFile(flag.Arg(0))
	if err != nil {
		return err
	}

	var msgs int64
	for _, r := range tr.Rounds {
		msgs += r.Messages
	}
	fmt.Printf("trace: %d runs, %d round records, %d messages in traced rounds\n\n",
		len(tr.Runs), len(tr.Rounds), msgs)

	phases := obs.Summarize(tr)
	if err := obs.Table(os.Stdout, phases); err != nil {
		return err
	}

	if shards := obs.SummarizeShards(tr); len(shards) > 0 {
		fmt.Println()
		if err := obs.ShardTable(os.Stdout, shards); err != nil {
			return err
		}
	}

	if len(tr.Evals) > 0 {
		fmt.Println()
		if err := obs.EvalTable(os.Stdout, tr.Evals); err != nil {
			return err
		}
	}

	if *dumpRuns {
		fmt.Println()
		for _, r := range tr.Runs {
			fmt.Printf("run %d phase=%q rounds=%d messages=%d peak_live=%d workers=%d shards=%d topo_cached=%v scratch_pooled=%v setup=%s compute=%s err=%q\n",
				r.Run, r.Phase, r.Rounds, r.Messages, r.PeakLive, r.Workers, r.Shards,
				r.TopoCached, r.ScratchPooled,
				time.Duration(r.SetupNS).Round(time.Microsecond),
				time.Duration(r.ComputeNS).Round(time.Microsecond), r.Err)
		}
	}
	return nil
}
