package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// The kill/resume harness (colorbench -scale-kill-resume) is the
// checkpoint path's end-to-end gate: run Legal-Coloring uninterrupted,
// run it again but persist the pipeline checkpoint at iteration k and
// kill the run there, then resume from the decoded checkpoint on a
// completely fresh network and require the resumed coloring - and the
// merged rounds/messages totals - to match the uninterrupted run bit
// for bit. Every checkpoint crosses a real encode/decode round trip, so
// the serialized form is what is verified, not the in-memory struct.

// checkpointVersion frames the serialized pipeline checkpoint; decoders
// reject other versions instead of guessing.
const checkpointVersion = 1

// checkpointFile is the serialized form of a core.Checkpoint: a small
// versioned JSON document (the z-slice dominates; at n=10^6 the blob is
// a few MB, written once per refinement iteration - noise next to the
// run itself).
type checkpointFile struct {
	Version   int              `json:"version"`
	Iteration int              `json:"iteration"`
	Alpha     int              `json:"alpha"`
	Z         []int            `json:"z"`
	Phases    []dist.PhaseStat `json:"phases,omitempty"`
}

// EncodeCheckpoint serializes a pipeline checkpoint to w.
func EncodeCheckpoint(w io.Writer, ck core.Checkpoint) error {
	enc := json.NewEncoder(w)
	return enc.Encode(checkpointFile{
		Version:   checkpointVersion,
		Iteration: ck.Iteration,
		Alpha:     ck.Alpha,
		Z:         ck.Z,
		Phases:    ck.Phases,
	})
}

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint.
func DecodeCheckpoint(r io.Reader) (*core.Checkpoint, error) {
	var f checkpointFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("experiments: decode checkpoint: %w", err)
	}
	if f.Version != checkpointVersion {
		return nil, fmt.Errorf("experiments: checkpoint version %d, want %d", f.Version, checkpointVersion)
	}
	return &core.Checkpoint{
		Iteration: f.Iteration,
		Alpha:     f.Alpha,
		Z:         f.Z,
		Phases:    f.Phases,
	}, nil
}

// errDeliberateKill is the harness's in-band crash: the OnIteration
// callback returns it after persisting the checkpoint, and the pipeline
// must surface it wrapped.
var errDeliberateKill = errors.New("experiments: deliberate kill after checkpoint")

// KillResumeReport summarizes one ScaleKillResume exercise.
type KillResumeReport struct {
	// Colors/Rounds/Messages are the uninterrupted run's totals, which
	// every resumed run matched bit for bit.
	Colors   int
	Rounds   int
	Messages int64
	// Iterations is the pipeline's refinement-iteration count; the run
	// was killed and resumed at every one of them.
	Iterations int
	// Bytes is the size of the largest serialized checkpoint.
	Bytes int
}

// ScaleKillResume runs the kill/resume gate on the scale instance
// described by opt. The instance and identifier permutation are
// prepared once; the reference run, every killed run and every resumed
// run each color the same network through a fresh dist.Network, so a
// resumed run shares no engine state with the run that was killed.
func ScaleKillResume(opt ScaleOptions) (*KillResumeReport, error) {
	opt.normalize()
	if opt.Arboricity <= opt.P {
		return nil, fmt.Errorf(
			"experiments: kill/resume needs at least one refinement iteration (a=%d <= p=%d)",
			opt.Arboricity, opt.P)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g, _, err := scaleGraph(opt, rng)
	if err != nil {
		return nil, err
	}
	ids := dist.NewNetworkPermuted(g, rng).IDs()
	newNet := func() (*dist.Network, error) {
		net, err := dist.NewNetworkWithIDs(g, ids)
		if err != nil {
			return nil, err
		}
		if opt.Workers > 0 {
			net = net.WithWorkers(opt.Workers)
		}
		return shardNet(net, g, opt.Shards)
	}
	cfg := core.Config{Arboricity: opt.Arboricity, P: opt.P}

	// The uninterrupted reference.
	net, err := newNet()
	if err != nil {
		return nil, err
	}
	ref, err := core.LegalColoring(net, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: kill/resume reference run: %w", err)
	}

	report := &KillResumeReport{
		Colors:     graph.NumColors(ref.Colors),
		Rounds:     ref.Tally.Rounds(),
		Messages:   ref.Tally.Messages(),
		Iterations: ref.Iterations,
	}
	for k := 1; k <= ref.Iterations; k++ {
		// The killed run: persist the iteration-k checkpoint through the
		// real serializer, then crash the pipeline.
		var blob bytes.Buffer
		kcfg := cfg
		kcfg.OnIteration = func(ck core.Checkpoint) error {
			if ck.Iteration != k {
				return nil
			}
			if err := EncodeCheckpoint(&blob, ck); err != nil {
				return err
			}
			return errDeliberateKill
		}
		if net, err = newNet(); err != nil {
			return nil, err
		}
		if _, err := core.LegalColoring(net, kcfg); !errors.Is(err, errDeliberateKill) {
			return nil, fmt.Errorf("experiments: killed run at iteration %d: want deliberate kill, got %v", k, err)
		}
		if blob.Len() == 0 {
			return nil, fmt.Errorf("experiments: killed run at iteration %d captured no checkpoint", k)
		}
		if blob.Len() > report.Bytes {
			report.Bytes = blob.Len()
		}

		// The resumed run, on a fresh network, from the decoded blob.
		ck, err := DecodeCheckpoint(bytes.NewReader(blob.Bytes()))
		if err != nil {
			return nil, err
		}
		rcfg := cfg
		rcfg.Checkpoint = ck
		if net, err = newNet(); err != nil {
			return nil, err
		}
		res, err := core.LegalColoring(net, rcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: resumed run from iteration %d: %w", k, err)
		}
		if !slices.Equal(res.Colors, ref.Colors) {
			return nil, fmt.Errorf("experiments: resume from iteration %d: colors diverge from uninterrupted run", k)
		}
		if res.Palette != ref.Palette || res.Iterations != ref.Iterations {
			return nil, fmt.Errorf(
				"experiments: resume from iteration %d: palette/iterations %d/%d, want %d/%d",
				k, res.Palette, res.Iterations, ref.Palette, ref.Iterations)
		}
		if res.Tally.Rounds() != ref.Tally.Rounds() || res.Tally.Messages() != ref.Tally.Messages() {
			return nil, fmt.Errorf(
				"experiments: resume from iteration %d: rounds/messages %d/%d, want %d/%d",
				k, res.Tally.Rounds(), res.Tally.Messages(), ref.Tally.Rounds(), ref.Tally.Messages())
		}
	}
	return report, nil
}
