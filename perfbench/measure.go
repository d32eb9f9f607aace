package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// coloringProcs is how many fresh processes an untraced run spreads its
// set-ups and colorings over. A process's memory placement biases every
// coloring it runs by several percent, so the medians are taken across
// processes.
const coloringProcs = 6

// procReport is what one coloring process prints: its first coloring,
// its warm colorings, and its checks.
type procReport struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	SetupS    float64   `json:"setup_s"`
	FirstS    float64   `json:"first_s"`
	WarmS     []float64 `json:"warm_s"`
	AllocMB   []float64 `json:"alloc_mb"`
	Counts    counts    `json:"counts"`
	Instance  uint64    `json:"instance"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
}

// measureEndToEnd is the untraced run: coloringProcs fresh processes in
// turn, which share out the budget. Each one sets up, colors once as a
// process's first coloring, then colors warm until its share is spent.
func (h *harness) measureEndToEnd() (*result, error) {
	start := time.Now()
	var setups, firsts, walls, allocs, rss []float64
	var ref *counts
	var instance uint64
	for i := 0; i < coloringProcs; i++ {
		share := (h.budget - time.Since(start)) / time.Duration(coloringProcs-i)
		rep, err := h.spawn(share, i == coloringProcs-1)
		if err != nil {
			return nil, err
		}
		h.attempted += rep.Attempted
		h.failed += rep.Failed
		if ref == nil {
			ref, instance = &rep.Counts, rep.Instance
		} else if rep.Counts != *ref || rep.Instance != instance {
			h.failed++
			fmt.Fprintf(os.Stderr, "perfbench: process %d built or colored a different instance: %v, first process %v\n", i+1, rep.Counts, *ref)
		}
		setups = append(setups, rep.SetupS)
		firsts = append(firsts, rep.FirstS)
		walls = append(walls, rep.WarmS...)
		allocs = append(allocs, rep.AllocMB...)
		rss = append(rss, rep.PeakRSSMB)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v; setup %.3f; first %.3f; %d warm colorings, median %.3fs\n",
		h.w.name, h.seed, *ref, setups, firsts, len(walls), median(walls))
	return &result{
		Correct:   h.failed == 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"first_coloring_s": {median(firsts), "s"},
			"coloring_s":       {median(walls), "s"},
			"alloc_mb":         {median(allocs), "MB"},
			"peak_rss_mb":      {median(rss), "MB"},
			"colors":           {float64(ref.Colors), "count"},
			"rounds":           {float64(ref.Rounds), "count"},
			"messages":         {float64(ref.Messages), "count"},
		},
	}, nil
}

// spawn runs one coloring process for about share and waits for it.
func (h *harness) spawn(share time.Duration, crossCheck bool) (*procReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", h.w.name, "--seed", strconv.FormatInt(h.seed, 10),
		"--workdir", h.dir, "--proc", "--proc-seconds", strconv.FormatFloat(share.Seconds(), 'f', 3, 64)}
	if crossCheck {
		args = append(args, "--cross-check")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("coloring process: %w", err)
	}
	var rep procReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("coloring process report: %w", err)
	}
	return &rep, nil
}

// colorProc is the body of a coloring process: build the instance from
// the seed, color it once as the process's first coloring, then
// color it on fresh networks until share has passed since start, at least
// once. With crossCheck a sharded workload finally colors on the flat
// engine too.
func (h *harness) colorProc(start time.Time, share time.Duration, crossCheck bool) error {
	h.attempted++
	inst, st, err := h.setup()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	first, err := h.color(inst, inst.net)
	if err != nil {
		return fmt.Errorf("first coloring: %w", err)
	}
	rep := procReport{SetupS: st.total.Seconds(), FirstS: first.wall.Seconds(), Counts: first.counts,
		Instance: inst.fingerprint()}
	for len(rep.WarmS) == 0 || time.Since(start) < share {
		net, err := h.freshNetwork(inst)
		if err != nil {
			return err
		}
		c, err := h.color(inst, net)
		if err != nil {
			return fmt.Errorf("warm coloring %d: %w", len(rep.WarmS)+1, err)
		}
		rep.WarmS = append(rep.WarmS, c.wall.Seconds())
		rep.AllocMB = append(rep.AllocMB, float64(c.alloc)/(1<<20))
	}
	if crossCheck {
		if err := h.crossCheckFlat(inst, first); err != nil {
			return err
		}
	}
	rep.Attempted, rep.Failed, rep.PeakRSSMB = h.attempted, h.failed, peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// crossCheckFlat colors a sharded workload's instance once more on the
// flat engine, untimed, and requires the identical coloring: sharding
// must never change the output.
func (h *harness) crossCheckFlat(inst *instance, sharded *coloring) error {
	if h.w.shards <= 1 {
		return nil
	}
	flat := *h
	flat.w.shards = 1
	net, err := flat.freshNetwork(inst)
	if err != nil {
		return err
	}
	c, err := flat.color(inst, net)
	h.attempted, h.failed = flat.attempted, flat.failed
	if err != nil {
		return fmt.Errorf("flat cross-check: %w", err)
	}
	if !slices.Equal(c.out.colors, sharded.out.colors) {
		h.failed++
		fmt.Fprintln(os.Stderr, "perfbench: the flat engine colors the sharded instance differently")
	}
	return nil
}
