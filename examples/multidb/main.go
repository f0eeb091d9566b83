// Multi-sequence database search through the serving store: §2.2's
// "given all the sequences T1..Tn in the database, we concatenate them
// into a single sequence T", productionised — the store indexes the
// twenty chromosomes' concatenation once, searches it with four workers
// pulling the query's fork families, and hands back hits already mapped
// to their member sequences, so the manual Locate loop this example
// used to carry is gone. A repeated query demonstrates the result-level
// query cache: the second run is a hash probe.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
	"repro/internal/seq"
)

func main() {
	rng := rand.New(rand.NewSource(23))

	// Twenty database chromosomes; the query shares segments with
	// three specific ones.
	var records []alae.SeqRecord
	for i := 0; i < 20; i++ {
		records = append(records, alae.SeqRecord{
			Name: fmt.Sprintf("chr%02d", i),
			Seq:  seq.RandomSeq(seq.DNA, 20_000, nil, rng),
		})
	}
	query := seq.RandomSeq(seq.DNA, 4_000, nil, rng)
	for k, src := range []int{2, 7, 13} {
		seg := seq.Mutate(seq.DNA, records[src].Seq[5_000:5_250],
			seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.005}, rng)
		copy(query[600+k*1200:], seg)
	}

	total := 0
	for _, r := range records {
		total += len(r.Seq)
	}
	fmt.Printf("indexing %d sequences (%d bp total)...\n", len(records), total)
	db, err := alae.NewStore(records, alae.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	const workers = 4 // fork-family workers per search

	for _, alg := range []alae.Algorithm{alae.ALAE, alae.BWTSW, alae.BLAST} {
		start := time.Now()
		res, err := db.Search(query, alae.SearchOptions{Algorithm: alg, EValue: 1e-10, Parallelism: workers})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		// Hits arrive mapped: count them per member directly.
		perMember := map[int]int{}
		best := map[int]alae.SeqHit{}
		for _, h := range res.Hits {
			perMember[h.Member]++
			if old, seen := best[h.Member]; !seen || h.Score > old.Score {
				best[h.Member] = h
			}
		}
		fmt.Printf("\n%v: %d hits in %v (H=%d), matching sequences:\n",
			alg, len(res.Hits), elapsed.Round(time.Microsecond), res.Threshold)
		for member, count := range perMember {
			b := best[member]
			fmt.Printf("  %s: %4d hits, best score %d ending at local %d (global %d)\n",
				b.Name, count, b.Score, b.LocalTEnd, b.TEnd)
		}
	}

	// The result-level query cache: an exact repeat is one hash probe.
	// (A configuration not searched above, so the first run really
	// computes.)
	opts := alae.SearchOptions{Algorithm: alae.ALAE, EValue: 1e-8, Parallelism: workers}
	start := time.Now()
	if _, err := db.Search(query, opts); err != nil {
		log.Fatal(err)
	}
	warm := time.Since(start)
	start = time.Now()
	hot, err := db.Search(query, opts)
	if err != nil {
		log.Fatal(err)
	}
	cached := time.Since(start)
	fmt.Printf("\nrepeat query: %v computed, %v from the result cache (cache hit: %v)\n",
		warm.Round(time.Microsecond), cached.Round(time.Microsecond), hot.Stats.QueryCacheHits == 1)
	fmt.Println("\nALAE and BWT-SW agree exactly; BLAST may drop weak regions.")
}
