package main

import alae "repro"

// pin is what a workload's inputs and exact work counts were when the
// benchmark was defined. A full-scale run at a pinned seed fails when
// they drift: a silent change to the seq generators, or to what the
// engine computes, must not pass as the same ruler.
type pin struct {
	fingerprint string
	counts      counts // one end-to-end pass (serve-mixed: one direct sweep of the untouched store)
}

var pinned = map[int64]map[string]pin{
	42: {
		"dna-long":    {"b32592a77e9885e3", counts{Entries: 30607601, Hits: 220616, Emitted: 4257267}},
		"dna-reads":   {"778a1ce6824fb1fb", counts{Entries: 27254960, Hits: 1926, Emitted: 2659}},
		"prot-emit":   {"3989cc20f6819712", counts{Entries: 46729745, Hits: 3341967, Emitted: 43752428}},
		"serve-mixed": {"7554e9bcee63d107", counts{Entries: 43976195, Hits: 856159, Emitted: 16479411}},
	},
}

// table2 is the repository's long-standing exactness gate: the first
// two dna-long queries at seed 42 are the Table 2 point,
// exp.DNAWorkload(200000, 5000, 2, 42).
var table2 = counts{Entries: 2752628, Hits: 23256}

// checkPinned compares the run's inputs and counts with the pinned
// ones. ix, when not nil, indexes the whole text, so the Table 2 gate
// can be asked of it.
func (r *run) checkPinned(ix *alae.Index) {
	if r.cfg.scale != 1 {
		return
	}
	want, ok := pinned[r.cfg.seed][r.w.name]
	if !ok {
		return
	}
	r.rep.Attempted++
	if r.rep.Fingerprint != want.fingerprint {
		r.rep.failf("inputs drifted: fnv64 %s, pinned %s", r.rep.Fingerprint, want.fingerprint)
	}
	if r.cfg.trace == 0 { // the traced run counts its replay, not a pass
		r.rep.Attempted++
		if r.rep.Counts != want.counts {
			r.rep.failf("work drifted: %+v, pinned %+v", r.rep.Counts, want.counts)
		}
	}
	if r.w.name == "dna-long" && r.cfg.seed == 42 && ix != nil {
		var got counts
		for _, q := range r.w.queries[:2] {
			res, err := ix.Search(q, r.w.searchOptions())
			if err != nil {
				r.rep.attempt(err)
				return
			}
			got.add(counts{Entries: res.Stats.CalculatedEntries, Hits: int64(len(res.Hits))})
		}
		r.rep.Attempted++
		if got != table2 {
			r.rep.failf("Table 2 gate: %d entries / %d hits, want %d / %d", got.Entries, got.Hits, table2.Entries, table2.Hits)
		}
	}
}
