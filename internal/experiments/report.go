package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Experiment couples a suite id with its runner, in suite order.
type Experiment struct {
	ID string
	Fn func(Sizes) ([]Row, error)
}

// List returns the full suite in canonical order. cmd/colorbench and the
// benchmark harness both iterate it, so adding an experiment in one place
// registers it everywhere.
func List() []Experiment {
	return []Experiment{
		{"E01", E01HPartition}, {"E02", E02Forests}, {"E03", E03BE08},
		{"E04", E04Linial}, {"E05", E05Defective},
		{"E06", E06CompleteOrientation}, {"E07", E07PartialOrientation},
		{"E08", E08SimpleArbdefective}, {"E09", E09ArbdefectiveColoring},
		{"E10", E10OneShot}, {"E11", E11LegalColoring}, {"E12", E12Tradeoff},
		{"E13", E13DeltaPlusOne}, {"E14", E14ArbKuhn}, {"E15", E15FastColoring},
		{"E16", E16ColorAT}, {"E17", E17MIS}, {"E18", E18StateOfTheArt},
		{"E19", E19OrientationColoring}, {"E20", E20AblationOrientation},
		{"E21", E21LinialReduction}, {"E22", E22IDRobustness},
	}
}

// Record is the machine-readable form of one experiment row, emitted by
// `colorbench -json` (one JSON object per line) so CI can archive runs
// and track rounds / messages / colors / wall-time trends across commits.
type Record struct {
	Exp      string  `json:"exp"`
	Workload string  `json:"workload"`
	Params   string  `json:"params"`
	Colors   int     `json:"colors"`
	Rounds   int     `json:"rounds"`
	Messages int64   `json:"messages"`
	Measured float64 `json:"measured"`
	Bound    float64 `json:"bound,omitempty"`
	Metric   string  `json:"metric"`
	OK       bool    `json:"ok"`
	Note     string  `json:"note,omitempty"`
	// WallMS is the wall-clock milliseconds of the whole experiment the
	// row belongs to (rows of one experiment share the measurement).
	WallMS float64 `json:"wall_ms"`
	N      int     `json:"n"`
	Seed   int64   `json:"seed"`
	// Mallocs, AllocMB and AllocsPerVertex are set on scale-run records
	// (exp "SCALE"): the heap allocation count / bytes (MB) of the
	// coloring run they bracket, and the normalized mallocs/n - the
	// figure the word-column plumbing exists to keep in the single
	// digits, gated in CI against a checked-in budget.
	Mallocs         uint64  `json:"mallocs,omitempty"`
	AllocMB         float64 `json:"alloc_mb,omitempty"`
	AllocsPerVertex float64 `json:"allocs_per_vertex,omitempty"`
	// GoMaxProcs and Workers pin the parallelism of a scale-run record:
	// the process's GOMAXPROCS at run time and the engine worker count
	// the run resolved to (RunOptions.Workers / Network.WithWorkers).
	// Together with WallMS they are the speedup curve the nightly
	// -scale-procs sweep archives; colors/rounds/messages must be
	// bit-for-bit identical at every point.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	Workers    int `json:"workers,omitempty"`
	// Shards is the shard count of a shard-structured scale run
	// (ScaleOptions.Shards / dist.Network.Sharded); omitted on plain flat
	// runs, 1 on the flat baseline point of a -scale-shards sweep. The
	// shard-count curve the nightly sweep archives sits next to the
	// Workers curve; colors/rounds/messages are bit-for-bit identical at
	// every point of both.
	Shards int `json:"shards,omitempty"`
	// GoVersion is runtime.Version() of the process that produced the
	// record; Timestamp is an RFC3339 stamp the harness passes in
	// (ScaleOptions.Timestamp - the engine never reads the clock for
	// record content, keeping runs replayable); TracePath points at the
	// round-level JSONL trace when one was recorded alongside.
	GoVersion string `json:"go_version,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
	TracePath string `json:"trace_path,omitempty"`
}

// NewRecord converts a row into its machine-readable form.
func NewRecord(r Row, wallMS float64, s Sizes) Record {
	return Record{
		Exp: r.Exp, Workload: r.Workload, Params: r.Params,
		Colors: r.Colors, Rounds: r.Rounds, Messages: r.Messages,
		Measured: r.Measured, Bound: r.Bound, Metric: r.Metric,
		OK: r.OK, Note: r.Note,
		WallMS: wallMS, N: s.N, Seed: s.Seed,
	}
}

// WriteJSON emits records as JSON Lines: one self-contained object per
// row, append-friendly for artifact archives.
func WriteJSON(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("experiments: encoding record %s/%s: %w", rec.Exp, rec.Params, err)
		}
	}
	return nil
}
