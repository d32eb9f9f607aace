package field

import "sync"

// famKey identifies a family by its construction parameters.
type famKey struct{ q, d int }

var (
	famMu    sync.RWMutex
	famCache = map[famKey]*Family{}
)

// Families returns the memoized family for (q, d), constructing it with
// the default row-table cap on first use. The cache is process-wide and
// safe for concurrent use; construction errors are not cached. No
// recoloring pipeline reads it (a step counts roots with Roots): only
// perfbench's field-kernel layer and tests reach it, until the
// benchmark change that stops timing the row surface deletes it.
func Families(q, d int) (*Family, error) {
	key := famKey{q, d}
	famMu.RLock()
	f := famCache[key]
	famMu.RUnlock()
	if f != nil {
		return f, nil
	}
	f, err := NewFamilySized(q, d, -1)
	if err != nil {
		return nil, err
	}
	famMu.Lock()
	defer famMu.Unlock()
	if prev, ok := famCache[key]; ok {
		return prev, nil // another goroutine won the race; keep one canonical copy
	}
	famCache[key] = f
	return f, nil
}
