package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/dist"
	"repro/internal/field"
)

// Trace is a fully decoded JSONL trace.
type Trace struct {
	Rounds []dist.RoundRecord
	Runs   []dist.RunRecord
	Evals  []field.EvalStat
}

// ReadTrace decodes a JSONL trace stream. Unknown record types are
// skipped (forward compatibility); malformed lines are errors.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(line, &tag); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		switch tag.T {
		case "round":
			var rl roundLine
			if err := json.Unmarshal(line, &rl); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			tr.Rounds = append(tr.Rounds, rl.RoundRecord)
		case "run":
			var rl runLine
			if err := json.Unmarshal(line, &rl); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			tr.Runs = append(tr.Runs, rl.RunRecord)
		case "evals":
			var el evalsLine
			if err := json.Unmarshal(line, &el); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			tr.Evals = append(tr.Evals, el.Evals...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return tr, nil
}

// ReadTraceFile decodes the JSONL trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// PhaseSummary aggregates every run and round of one orchestrator phase.
type PhaseSummary struct {
	// Phase is the orchestrator label ("" groups unlabeled runs).
	Phase string
	// Runs / Rounds / Messages are totals over the phase's engine runs.
	Runs     int
	Rounds   int
	Messages int64
	// Wall is the summed compute wall of the phase's runs; Setup the
	// summed simulation-assembly wall.
	Wall  time.Duration
	Setup time.Duration
	// PeakLive is the largest live-set any run started with; LastLive the
	// live count of the phase's final recorded round - together they show
	// the live-set decay the trace captured.
	PeakLive int
	LastLive int
	// MsgsPerRound is Messages / Rounds (0 when roundless).
	MsgsPerRound float64
	// MaxImbalance is the worst per-round max/mean chunk-time ratio
	// observed in the phase (1 = perfectly balanced, 0 = no multi-worker
	// rounds recorded).
	MaxImbalance float64
	// TopoHits / ScratchHits count runs that reused the session topology
	// cache / pooled scratch.
	TopoHits    int
	ScratchHits int
	// Errs counts aborted runs.
	Errs int
}

// Summarize joins round records to their runs by probe sequence number
// and aggregates per phase, in order of first appearance.
func Summarize(tr *Trace) []PhaseSummary {
	phaseOf := make(map[int64]string, len(tr.Runs))
	for _, r := range tr.Runs {
		phaseOf[r.Run] = r.Phase
	}
	idx := make(map[string]int)
	var out []PhaseSummary
	get := func(phase string) *PhaseSummary {
		i, ok := idx[phase]
		if !ok {
			i = len(out)
			idx[phase] = i
			out = append(out, PhaseSummary{Phase: phase})
		}
		return &out[i]
	}
	for _, r := range tr.Runs {
		s := get(r.Phase)
		s.Runs++
		s.Rounds += r.Rounds
		s.Messages += r.Messages
		s.Wall += time.Duration(r.ComputeNS)
		s.Setup += time.Duration(r.SetupNS)
		if r.PeakLive > s.PeakLive {
			s.PeakLive = r.PeakLive
		}
		if r.TopoCached {
			s.TopoHits++
		}
		if r.ScratchPooled {
			s.ScratchHits++
		}
		if r.Err != "" {
			s.Errs++
		}
	}
	for _, r := range tr.Rounds {
		s := get(phaseOf[r.Run])
		s.LastLive = r.Live
		if r.MeanChunkNS > 0 {
			if ratio := float64(r.MaxChunkNS) / float64(r.MeanChunkNS); ratio > s.MaxImbalance {
				s.MaxImbalance = ratio
			}
		}
	}
	for i := range out {
		if out[i].Rounds > 0 {
			out[i].MsgsPerRound = float64(out[i].Messages) / float64(out[i].Rounds)
		}
	}
	return out
}

// Table renders the phase summaries as an aligned text table.
func Table(w io.Writer, phases []PhaseSummary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE\tRUNS\tROUNDS\tMESSAGES\tMSGS/ROUND\tWALL\tSETUP\tPEAK-LIVE\tLAST-LIVE\tIMBAL\tCACHE\tERRS")
	for _, p := range phases {
		name := p.Phase
		if name == "" {
			name = "(unlabeled)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%s\t%s\t%d\t%d\t%.2f\t%d/%d\t%d\n",
			name, p.Runs, p.Rounds, p.Messages, p.MsgsPerRound,
			p.Wall.Round(time.Microsecond), p.Setup.Round(time.Microsecond),
			p.PeakLive, p.LastLive, p.MaxImbalance, p.TopoHits, p.Runs, p.Errs)
	}
	return tw.Flush()
}

// ShardSummary aggregates one shard's slice of every sharded round in a
// trace: peak live nodes, total messages, and summed step wall. Shards
// are joined by index, so a trace mixing runs of different shard counts
// aggregates per position; the WallShare column is the shard's fraction
// of the summed step wall, the number to scan for imbalance.
type ShardSummary struct {
	Shard    int
	Rounds   int // rounds in which the shard held live nodes
	PeakLive int
	Messages int64
	Wall     time.Duration
	// WallShare is Wall divided by the total over all shards (0 when no
	// wall was recorded).
	WallShare float64
}

// SummarizeShards aggregates the per-shard round stats of a trace,
// returning nil when the trace carries none (flat runs).
func SummarizeShards(tr *Trace) []ShardSummary {
	var out []ShardSummary
	for _, r := range tr.Rounds {
		for j, ss := range r.Shards {
			for j >= len(out) {
				out = append(out, ShardSummary{Shard: len(out)})
			}
			s := &out[j]
			if ss.Live > 0 {
				s.Rounds++
			}
			if ss.Live > s.PeakLive {
				s.PeakLive = ss.Live
			}
			s.Messages += ss.Messages
			s.Wall += time.Duration(ss.WallNS)
		}
	}
	var total time.Duration
	for i := range out {
		total += out[i].Wall
	}
	if total > 0 {
		for i := range out {
			out[i].WallShare = float64(out[i].Wall) / float64(total)
		}
	}
	return out
}

// ShardTable renders the per-shard aggregates as an aligned text table.
func ShardTable(w io.Writer, shards []ShardSummary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tROUNDS\tPEAK-LIVE\tMESSAGES\tSTEP-WALL\tWALL-SHARE")
	for _, s := range shards {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%s\t%.3f\n",
			s.Shard, s.Rounds, s.PeakLive, s.Messages,
			s.Wall.Round(time.Microsecond), s.WallShare)
	}
	return tw.Flush()
}

// EvalTable renders the field-evaluation snapshot as an aligned table,
// sorted by total evaluations descending: per recoloring step, the hits
// (each vertex step's own point plus its neighbours resolved in closed
// form) and the neighbours resolved through the finite-difference
// ladder.
func EvalTable(w io.Writer, stats []field.EvalStat) error {
	sorted := append([]field.EvalStat(nil), stats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Total() > sorted[j].Total() })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STEP\tQ\tD\tEVALS\tCLOSED-FORM+OWN\tLADDER\tHIT-RATE")
	for _, s := range sorted {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%.4f\n",
			s.Step, s.Q, s.D, s.Total(), s.Hits, s.Batched, s.HitRate())
	}
	return tw.Flush()
}
