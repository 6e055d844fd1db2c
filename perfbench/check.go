package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/netmodel"
)

// ref is the simulated outcome a replay-safe cell must reproduce
// exactly: its message and byte totals on every network, and its
// simulated time on the ideal network.
type ref struct {
	Msgs   int   `json:"msgs"`
	Bytes  int   `json:"bytes"`
	TimeNS int64 `json:"time_ns"`
}

// refsJSON holds the reference outcomes, keyed by obs.key. Regenerate
// with `perfbench -write-refs` after a change that is meant to move
// simulated results.
//
//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string]ref, error) {
	var refs map[string]ref
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("parsing refs.json: %w", err)
	}
	return refs, nil
}

// checker counts attempted and failed operations. A cell is one
// operation; it fails when its grid reports an error (Workload.Check
// included) or its outcome differs from the reference. Cells of
// schedule-sensitive applications (apps.ReplaySafe false: TSP and
// Water) are exempt from the exact comparison.
type checker struct {
	refs map[string]ref

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	seen      []obs
}

func newChecker(refs map[string]ref) *checker { return &checker{refs: refs} }

// observe checks every outcome and remembers it.
func (c *checker) observe(os []obs) {
	for _, o := range os {
		msg := c.verify(o)
		c.mu.Lock()
		c.attempted++
		c.seen = append(c.seen, o)
		if msg != "" {
			c.failed++
			c.note(msg)
		}
		c.mu.Unlock()
	}
}

// verify returns why o does not match its reference, or "".
func (c *checker) verify(o obs) string {
	if c.refs == nil || !apps.ReplaySafe(o.app) {
		return ""
	}
	r, ok := c.refs[o.key()]
	if !ok {
		return fmt.Sprintf("%s: no reference value", o.key())
	}
	if !o.timeOnly && (o.cell.Msgs != r.Msgs || o.cell.Bytes != r.Bytes) {
		return fmt.Sprintf("%s: msgs/bytes %d/%d, reference %d/%d",
			o.key(), o.cell.Msgs, o.cell.Bytes, r.Msgs, r.Bytes)
	}
	if o.network == netmodel.Default && int64(o.cell.Time) != r.TimeNS {
		return fmt.Sprintf("%s: simulated time %d ns, reference %d ns", o.key(), int64(o.cell.Time), r.TimeNS)
	}
	return ""
}

// op counts one operation that is not a grid cell (a request, a probe).
func (c *checker) op(failure string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if failure != "" {
		c.failed++
		c.note(failure)
	}
}

// fail counts one failure that is not tied to a counted operation (a
// grid that stopped early, a broken span).
func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	c.note(msg)
}

func (c *checker) note(msg string) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, msg)
	}
}

func (c *checker) observed() []obs {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs(nil), c.seen...)
}

// writeRefs stores the replay-safe outcomes in seen as the reference
// file.
func writeRefs(path string, seen []obs) error {
	refs := map[string]ref{}
	for _, o := range seen {
		if !apps.ReplaySafe(o.app) {
			continue
		}
		refs[o.key()] = ref{Msgs: o.cell.Msgs, Bytes: o.cell.Bytes, TimeNS: int64(o.cell.Time)}
	}
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One entry per line keeps the file diffable.
	buf := []byte("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(refs[k])
		buf = append(buf, "  "...)
		buf = append(buf, kb...)
		buf = append(buf, ": "...)
		buf = append(buf, vb...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}
