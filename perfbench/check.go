package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sweep"
)

// The output check. digests.json commits the expected SHA-256 of every
// output a workload can produce from any --seed: the seed only picks
// among the committed worlds, request keys and grids (see the pools in
// each workload), so every checked output has an expected digest.
// `--update-digests` recomputes the whole table.

//go:embed digests.json
var digestsJSON []byte

// digestTable maps workload → output key → hex SHA-256.
type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// checker compares outputs against the committed table, or records
// them when updating it.
type checker struct {
	want   digestTable
	record digestTable // non-nil in update mode
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check compares one output digest; a mismatch or a missing expected
// digest is a failed operation in o. It reports whether the output
// passed.
func (c *checker) check(o *outcome, workload, key, got string) bool {
	if c.record != nil {
		if c.record[workload] == nil {
			c.record[workload] = map[string]string{}
		}
		c.record[workload][key] = got
		return true
	}
	want, ok := c.want[workload][key]
	switch {
	case !ok:
		o.mismatch("%s %s: no committed digest", workload, key)
		return false
	case want != got:
		o.mismatch("%s %s: digest %.12s, want %.12s", workload, key, got, want)
		return false
	}
	return true
}

// save writes the recorded table to path (encoding/json sorts the keys).
func (c *checker) save(path string) error {
	b, err := json.MarshalIndent(c.record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// outputDigest covers what a study response carries: the summary (nil
// for filtered runs) and the text report.
func outputDigest(sum *sweep.Summary, report string) (string, error) {
	b, err := json.Marshal(sum)
	if err != nil {
		return "", err
	}
	return digest(b, []byte(report)), nil
}

// aggregateDigest covers a sweep's aggregate and its per-cell
// summaries (timings excluded).
func aggregateDigest(res *sweep.Result) (string, error) {
	sums := make([]*sweep.Summary, len(res.Cells))
	for i, c := range res.Cells {
		sums[i] = c.Summary
	}
	agg, err := json.Marshal(res.Aggregate)
	if err != nil {
		return "", err
	}
	cells, err := json.Marshal(sums)
	if err != nil {
		return "", err
	}
	return digest(agg, cells), nil
}
