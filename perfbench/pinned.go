package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// pinned.json holds the counts each workload produced per seed when the
// benchmark was defined. The paper's output (colors, rounds, messages)
// must not move under any change to the program, so a mismatch fails the
// run instead of showing up as a metric move.
//
//go:embed pinned.json
var pinnedJSON []byte

var pinned map[string]map[string]counts

func pinnedCounts(workload string, seed int64) (counts, bool) {
	if pinned == nil {
		if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
			panic("perfbench: malformed pinned.json: " + err.Error())
		}
	}
	c, ok := pinned[workload][strconv.FormatInt(seed, 10)]
	return c, ok
}
