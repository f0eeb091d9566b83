// Command alae runs local-alignment searches: it builds a serving
// store over one or more FASTA database files and aligns every record
// of a FASTA query file against it, printing hits mapped to their
// member sequences and, optionally, full alignments.
//
// Usage:
//
//	alae -text genome.fa -query reads.fa [flags]
//	alae -text chr1.fa,chr2.fa -shards 4 -query reads.fa
//
// -text accepts a comma-separated list of FASTA files; every record of
// every file becomes one named member of the store, indexed together
// in one shared index per generation. -shards is a pure parallelism
// knob: each search's fork families are pulled by that many
// work-stealing lanes over the shared index, and the answers — hits
// AND work counters — are byte-identical at every value. It applies
// to -load-store too (the lane count is never persisted). Repeated
// identical queries are answered from the store's result cache. Flags select the engine (alae, alae-hybrid, bwtsw, blast,
// sw), the scoring scheme ⟨sa,sb,sg,ss⟩ and either a raw score
// threshold or an E-value. Exit status is non-zero on any error.
//
// The store is generational and mutable in place:
//
//	alae -text genome.fa -save-store-dir db/          # build a directory store
//	alae -load-store db/ -append extra.fa             # append a generation
//	alae -load-store db/ -delete chr3,chr7            # tombstone members
//	alae -load-store db/ -compact                     # merge + purge
//
// When the store is directory-backed (-save-store-dir, or -load-store
// pointed at a directory), every mutation persists crash-safely before
// it becomes visible: a kill at any point leaves a directory that
// reloads as either the pre- or post-mutation store. Mutations on a
// store loaded from a single file stay in memory unless -save-store
// rewrites the file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/seq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alae:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		textPath  = flag.String("text", "", "comma-separated FASTA file(s) with the database sequences (required)")
		queryPath = flag.String("query", "", "FASTA file with the query sequences (required)")
		algorithm = flag.String("algorithm", "alae", "engine: alae, alae-hybrid, bwtsw, blast, sw")
		schemeStr = flag.String("scheme", "1,-3,-5,-2", "scoring scheme sa,sb,sg,ss")
		threshold = flag.Int("threshold", 0, "raw score threshold H (0 = derive from -evalue)")
		eValue    = flag.Float64("evalue", 10, "expectation value used when -threshold is 0")
		parallel  = flag.Int("p", 0, "ALAE worker goroutines per search (0 = all cores, 1 = sequential)")
		shards    = flag.Int("shards", 1, "scatter lanes per search over the store's shared index (parallelism only; answers are identical at every value)")
		cacheSize = flag.Int("query-cache", 0, "result-cache capacity in queries (0 = default, -1 = disabled)")
		showAlign = flag.Bool("align", false, "print the best alignment per query")
		maxHits   = flag.Int("max-hits", 10, "hits printed per query (0 = all)")
		stats     = flag.Bool("stats", false, "print work statistics per query")
		saveStore = flag.String("save-store", "", "write the store (manifest + generation indexes) to this single file")
		saveDir   = flag.String("save-store-dir", "", "write the store as a generation directory; mutations then persist there crash-safely")
		loadStore = flag.String("load-store", "", "load a previously saved store (file or directory) instead of -text")
		strands   = flag.Bool("both-strands", false, "also search the reverse complement (DNA)")

		appendPath  = flag.String("append", "", "comma-separated FASTA file(s) appended to the store as a fresh generation")
		deleteNames = flag.String("delete", "", "comma-separated member names to delete (tombstoned until compaction)")
		compact     = flag.Bool("compact", false, "run one compaction pass: merge small generations, purge tombstoned bytes")
	)
	flag.Parse()
	if *loadStore == "" && *textPath == "" {
		flag.Usage()
		return fmt.Errorf("-text (or -load-store) is required")
	}
	mutates := *appendPath != "" || *deleteNames != "" || *compact
	if *saveStore == "" && *saveDir == "" && !mutates && *queryPath == "" {
		flag.Usage()
		return fmt.Errorf("-query is required unless building or mutating a store")
	}

	scheme, err := parseScheme(*schemeStr)
	if err != nil {
		return err
	}
	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		return err
	}

	var store *alae.Store
	if *loadStore != "" {
		if store, err = alae.LoadStoreFile(*loadStore, alae.StoreOptions{Shards: *shards, QueryCacheSize: *cacheSize}); err != nil {
			return fmt.Errorf("loading %s: %w", *loadStore, err)
		}
		fmt.Printf("loaded store: %d member(s), %d scatter lane(s), %d characters\n",
			store.Sequences().Len(), store.Shards(), store.Sequences().TotalLen())
	} else {
		records, err := readFASTARecords(*textPath)
		if err != nil {
			return err
		}
		if len(records) == 0 {
			return fmt.Errorf("%s contains no sequences", *textPath)
		}
		total := 0
		for _, r := range records {
			total += len(r.Seq)
		}
		fmt.Printf("indexing %d sequence(s), %d characters, %d scatter lane(s)\n", len(records), total, *shards)
		if store, err = alae.NewStore(records, alae.StoreOptions{Shards: *shards, QueryCacheSize: *cacheSize}); err != nil {
			return err
		}
	}
	if *saveDir != "" {
		// SaveDir writes the generation directory and attaches the store
		// to it, so the mutations below persist crash-safely as they run.
		if err := store.SaveDir(*saveDir); err != nil {
			return fmt.Errorf("saving store directory: %w", err)
		}
		fmt.Printf("store directory written to %s\n", *saveDir)
	}
	if *appendPath != "" {
		records, err := readFASTARecords(*appendPath)
		if err != nil {
			return err
		}
		if err := store.Append(records); err != nil {
			return fmt.Errorf("appending: %w", err)
		}
		fmt.Printf("appended %d member(s) as a fresh generation\n", len(records))
	}
	if *deleteNames != "" {
		var names []string
		for _, name := range strings.Split(*deleteNames, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		n, err := store.Delete(names...)
		if err != nil {
			return fmt.Errorf("deleting: %w", err)
		}
		fmt.Printf("deleted %d member(s) (tombstoned; compaction purges the bytes)\n", n)
	}
	if *compact {
		cs, err := store.Compact()
		if err != nil {
			return fmt.Errorf("compacting: %w", err)
		}
		fmt.Printf("compacted %d generation(s) into %d, purged %d member(s) (%d bytes)\n",
			cs.Before, cs.After, cs.PurgedMembers, cs.PurgedBytes)
	}
	if mutates {
		fmt.Printf("store now: %d live member(s), %d generation(s), %d tombstone(s), stamp %d\n",
			store.Sequences().Len(), store.Generations(), store.Tombstones(), store.Stamp())
		if store.Dir() == "" && *saveStore == "" {
			fmt.Println("note: store is not directory-backed; mutations live in memory only (use -save-store or -save-store-dir)")
		}
	}
	if *saveStore != "" {
		// SaveFile is crash-safe: the store lands under a temp name and
		// renames into place, so an interrupted build never leaves a torn
		// file where a serving daemon's reload loop would find it.
		if err := store.SaveFile(*saveStore); err != nil {
			return fmt.Errorf("saving store: %w", err)
		}
		fmt.Printf("store written to %s\n", *saveStore)
	}
	if *queryPath == "" {
		return nil
	}

	queryFile, err := os.Open(*queryPath)
	if err != nil {
		return err
	}
	defer queryFile.Close()
	queryRecs, err := seq.ReadFASTA(queryFile)
	if err != nil {
		return fmt.Errorf("reading %s: %w", *queryPath, err)
	}

	searchOpts := alae.SearchOptions{
		Algorithm:   alg,
		Scheme:      scheme,
		Threshold:   *threshold,
		EValue:      *eValue,
		Parallelism: *parallel,
	}
	for _, rec := range queryRecs {
		res, err := store.Search(rec.Seq, searchOpts)
		if err != nil {
			return fmt.Errorf("query %s: %w", rec.Header, err)
		}
		if *strands {
			rev, err := store.Search(alae.ReverseComplement(rec.Seq), searchOpts)
			if err != nil {
				return fmt.Errorf("query %s (both strands): %w", rec.Header, err)
			}
			fmt.Printf("query %s: %d reverse-strand hit(s)\n", rec.Header, len(rev.Hits))
		}
		fmt.Printf("query %s: %d hit(s) at H=%d [%v]\n",
			rec.Header, len(res.Hits), res.Threshold, res.Algorithm)
		printed := 0
		var best alae.SeqHit
		for _, h := range res.Hits {
			if h.Score > best.Score {
				best = h
			}
			if *maxHits == 0 || printed < *maxHits {
				fmt.Printf("  text %s:%d  query end %d  score %d\n", h.Name, h.LocalTEnd, h.QEnd, h.Score)
				printed++
			}
		}
		if printed < len(res.Hits) {
			fmt.Printf("  ... %d more\n", len(res.Hits)-printed)
		}
		if *showAlign && best.Score > 0 {
			a, err := store.Align(rec.Seq, scheme, best)
			if err != nil {
				return err
			}
			fmt.Println(store.FormatAlignment(a, best, rec.Seq, 60))
		}
		if *stats {
			fmt.Printf("  stats: %+v\n", res.Stats)
		}
	}
	return nil
}

// readFASTARecords reads every record of a comma-separated list of
// FASTA files into store members named by their headers.
func readFASTARecords(paths string) ([]alae.SeqRecord, error) {
	var records []alae.SeqRecord
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		recs, err := seq.ReadFASTA(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		for _, rec := range recs {
			records = append(records, alae.SeqRecord{Name: rec.Header, Seq: rec.Seq})
		}
	}
	return records, nil
}

func parseScheme(s string) (alae.Scheme, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return alae.Scheme{}, fmt.Errorf("scheme %q: want sa,sb,sg,ss", s)
	}
	var vals [4]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &vals[i]); err != nil {
			return alae.Scheme{}, fmt.Errorf("scheme %q: %w", s, err)
		}
	}
	sch := alae.Scheme{Match: vals[0], Mismatch: vals[1], GapOpen: vals[2], GapExtend: vals[3]}
	return sch, sch.Validate()
}

func parseAlgorithm(s string) (alae.Algorithm, error) {
	switch strings.ToLower(s) {
	case "alae":
		return alae.ALAE, nil
	case "alae-hybrid", "hybrid":
		return alae.ALAEHybrid, nil
	case "bwtsw", "bwt-sw":
		return alae.BWTSW, nil
	case "blast":
		return alae.BLAST, nil
	case "sw", "smith-waterman":
		return alae.SmithWaterman, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}
