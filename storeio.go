package alae

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bwt"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/strie"
)

// Store persistence, the one on-disk format: a versioned manifest —
// generations, member names and lengths, tombstone flags — framing one
// index payload per generation (encodeIndex: the compressed suffix
// array alone, with the FM-index's own versioning and rank-layout
// tags: its rank core's data words as they sit in memory, the packed
// core's separator rows, the bit-packed position samples; the rank
// directory is rebuilt on load, and so is the text, by inverting the
// BWT with one LF chain per position sample, each of which must land
// on the next lower sample). Each index payload is length-prefixed,
// which keeps the indexes' internal buffered readers from consuming
// past their own frame. A bare text is persisted as a one-record
// store.
//
// Version history: 1 and 2 persisted one index payload per shard; 3
// persisted ONE index payload per generation, with a mutation stamp,
// per-generation ids and member flags (bit 0 = tombstoned), its index
// as BWT code bytes plus occurrence checkpoints; 4 keeps that manifest
// and stores the index's rank core verbatim, a DNA generation's
// separator rows beside its 2-bit core (about 2.0 bytes per character
// in all, against 2.9); 5 keeps that and packs the position samples at
// bits.Len(n/SampleRate) bits each instead of 32; 6 keeps that and
// writes only the rank core's data words, whose two-level directory
// the load rebuilds in the pass that checks them, so no file carries a
// count word (a 64-member DNA store about 1.61 bytes per live
// character, against 1.74); 7 drops the text from each payload, which
// the load rebuilds from the BWT and checks against every position
// sample (about 0.61 bytes per live character). Only version 7 is
// read: an older file fails with an error naming its version; rebuild
// it from its FASTA.
//
// A directory-backed store (storegen.go) writes each generation as a
// one-generation store file, and its MANIFEST is the whole store's
// manifest with no payloads, whose member flags own the tombstones.

// storeMagic opens every serialised store.
var storeMagic = [8]byte{'A', 'L', 'A', 'E', 'S', 'T', 'O', 'R'}

// storeVersion is the manifest format version this build writes.
const storeVersion uint32 = 7

// sane upper bounds for manifest fields: a reload of hostile or
// corrupt bytes must fail with a message, not an allocation storm.
const (
	maxStoreMembers = 1 << 28
	maxStoreNameLen = 1 << 20
	maxStoreSeqLen  = 1 << 40
)

// countingSink measures a serialization without holding it: the
// pre-pass of the streaming save.
type countingSink struct{ n int64 }

func (c *countingSink) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// countingTee writes through while counting, so the second pass can
// verify it produced exactly the bytes the pre-pass declared.
type countingTee struct {
	w io.Writer
	n int64
}

func (c *countingTee) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Save serialises the store: the manifest followed by each
// generation's index (the compressed suffix array; no text). The format
// is versioned and validated on load. Index payloads STREAM to w in
// two passes — a counting pre-pass derives each length prefix, then
// the serialization runs again writing through — so saving never
// materialises a generation's payload in memory (the old single-pass
// save buffered each payload whole, roughly doubling peak memory on
// large stores).
func (st *Store) Save(w io.Writer) error {
	v := st.currentView()
	return saveGenerations(w, v.gens, v.stamp)
}

// saveGenerations writes gens in the version-7 format: one index
// payload per generation, no shard list. Index serialization is
// deterministic, so the counting pre-pass's size is exact; the tee's
// post-check turns any violation of that assumption into a save error
// instead of a corrupt file.
func saveGenerations(w io.Writer, gens []*generation, stamp uint64) error {
	if err := writeStoreManifest(w, gens, stamp); err != nil {
		return err
	}
	for _, g := range gens {
		ix := g.ix
		var cnt countingSink
		if err := encodeIndex(&cnt, ix); err != nil {
			return err
		}
		var pfx [8]byte
		binary.LittleEndian.PutUint64(pfx[:], uint64(cnt.n))
		if _, err := w.Write(pfx[:]); err != nil {
			return err
		}
		tee := countingTee{w: w}
		if err := encodeIndex(&tee, ix); err != nil {
			return err
		}
		if tee.n != cnt.n {
			return fmt.Errorf("alae: saving store: generation payload measured %d bytes but wrote %d", cnt.n, tee.n)
		}
	}
	return nil
}

// writeStoreManifest writes the format's header and manifest: magic,
// version, stamp, then per generation its id and each member's name,
// length and flags. A directory's MANIFEST file is exactly this. It is
// encoded into one buffer, sized up front, and written at once.
func writeStoreManifest(w io.Writer, gens []*generation, stamp uint64) error {
	size := len(storeMagic) + 4 + 8 + 8
	for _, g := range gens {
		size += 8 + 8
		for m := 0; m < g.tab.Len(); m++ {
			size += 8 + len(g.tab.Name(m)) + 8 + 1
		}
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, storeMagic[:]...)
	buf = le.AppendUint32(buf, storeVersion)
	buf = le.AppendUint64(buf, stamp)
	buf = le.AppendUint64(buf, uint64(len(gens)))
	for _, g := range gens {
		buf = le.AppendUint64(buf, g.id)
		buf = le.AppendUint64(buf, uint64(g.tab.Len()))
		for m := 0; m < g.tab.Len(); m++ {
			name := g.tab.Name(m)
			buf = le.AppendUint64(buf, uint64(len(name)))
			buf = append(buf, name...)
			buf = le.AppendUint64(buf, uint64(g.tab.SeqLen(m)))
			var flags uint8
			if g.isDead(m) {
				flags |= 1
			}
			buf = append(buf, flags)
		}
	}
	_, err := w.Write(buf)
	return err
}

// encodeIndex writes one generation's index payload: the FM-index
// serialization alone. The text is not written: decodeIndex rebuilds
// it from the BWT.
func encodeIndex(w io.Writer, ix *Index) error {
	_, err := ix.trie.Index().WriteTo(w)
	return err
}

// decodeIndex reads an index payload written by encodeIndex, which
// must be all of r, and rebuilds the text from the BWT. The FM-index
// indexes the reversed text, so the rebuilt bytes are mirrored in
// place. The text is allocated only after the index's bytes have
// arrived, so a lying header commits no memory.
func decodeIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	fm, err := bwt.ReadFMIndex(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("alae: trailing bytes after the index")
	} else if err != io.EOF {
		return nil, fmt.Errorf("alae: reading index: %w", err)
	}
	text, err := fm.Invert()
	if err != nil {
		return nil, err
	}
	slices.Reverse(text)
	return &Index{
		text: text,
		trie: strie.NewFromIndex(text, fm),
		alae: make(map[engineKey]*core.Engine),
	}, nil
}

// atomicWriteFile publishes bytes at path crash-safely: write writes
// them to a temporary file in path's directory, the temp file is
// fsynced and atomically renamed over path, and the directory is
// synced best-effort so the rename itself survives a crash. Whatever
// happens mid-write — a crash, a kill, a full disk — path holds either
// its previous complete content or the new complete content, never a
// torn prefix; a failed temp file is removed. storeFSHook (tests only)
// interposes after each durable step.
func atomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("alae: saving store: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = fsStep("temp-created", tmp); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = fsStep("temp-written", tmp); err != nil {
		return err
	}
	// The data must be durable BEFORE the rename makes it visible:
	// rename-then-sync can leave path pointing at zero-length garbage
	// after a power cut.
	if err = f.Sync(); err != nil {
		return fmt.Errorf("alae: syncing store: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("alae: closing store: %w", err)
	}
	if err = fsStep("temp-synced", tmp); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("alae: publishing store: %w", err)
	}
	// Best-effort directory sync; some filesystems reject directory
	// fsync, which is not worth failing a completed publish over.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return fsStep("renamed", path)
}

// SaveFile writes the store to path as one crash-safe snapshot file
// (temp + fsync + atomic rename): whatever happens mid-write, path
// holds either the previous complete store or the new complete store.
// A server's periodic reload (LoadStoreFile) therefore never observes
// a partially-written store from a concurrent SaveFile. For a MUTABLE
// serving store, SaveDir's generation-directory layout persists each
// Append/Delete/Compact incrementally instead of rewriting the world.
func (st *Store) SaveFile(path string) error {
	return atomicWriteFile(path, func(w io.Writer) error { return st.Save(w) })
}

// LoadStoreFile reads a store written by SaveFile (or any file holding
// Save's format), or on a directory path the layout SaveDir writes.
func LoadStoreFile(path string, opts StoreOptions) (*Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("alae: loading store: %w", err)
	}
	if fi.IsDir() {
		return loadStoreDir(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("alae: loading store: %w", err)
	}
	defer f.Close()
	return loadStore(f, fi.Size(), opts)
}

// LoadStore reads a store written by Save (format version 7). The
// generation list comes from the manifest; opts.QueryCacheSize
// configures the (runtime-only, never persisted) query cache.
func LoadStore(r io.Reader, opts StoreOptions) (*Store, error) {
	return loadStore(r, -1, opts)
}

// loadStore is LoadStore over an input of size bytes (-1: unknown).
func loadStore(r io.Reader, size int64, opts StoreOptions) (*Store, error) {
	gens, stamp, err := loadGenerations(r, nil, size)
	if err != nil {
		return nil, err
	}
	return newStoreFromGens(gens, stamp, opts)
}

// genManifest is one generation's parsed manifest block, pre-payload.
type genManifest struct {
	id      uint64
	names   []string
	lengths []int
	dead    []bool // nil when no tombstones
	ndead   int
}

// loadGenerations parses Save's format: the manifest, then one index
// payload per generation in order. want and size are
// readStoreManifest's.
func loadGenerations(r io.Reader, want *genManifest, size int64) ([]*generation, uint64, error) {
	br := bufio.NewReader(r)
	manifests, stamp, err := readStoreManifest(br, want, size)
	if err != nil {
		return nil, 0, err
	}
	gens := make([]*generation, len(manifests))
	for gi, gm := range manifests {
		g, err := loadGenPayload(br, gm)
		if err != nil {
			return nil, 0, err
		}
		gens[gi] = g
	}
	return gens, stamp, nil
}

// readStoreHeader reads and checks the format's magic and version and
// returns the mutation stamp that follows them.
func readStoreHeader(br *bufio.Reader) (uint64, error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("alae: reading store: %w", err)
	}
	if magic != storeMagic {
		return 0, fmt.Errorf("alae: not a store file (bad magic %q)", magic[:])
	}
	version, err := readLE(br, 4)
	if err != nil {
		return 0, fmt.Errorf("alae: reading store version: %w", err)
	}
	if version != uint64(storeVersion) {
		return 0, fmt.Errorf("alae: unsupported store version %d (this build reads version %d only); rebuild the store", version, storeVersion)
	}
	return readStoreU64(br, "stamp", 1<<62)
}

// peek returns the next n ≤ br.Size() bytes of br in place, without
// consuming them. A short read is io.EOF when nothing was left and
// io.ErrUnexpectedEOF otherwise, as with io.ReadFull.
func peek(br *bufio.Reader, n int) ([]byte, error) {
	p, err := br.Peek(n)
	if err == io.EOF && len(p) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return p, err
}

// readLE reads the next n ≤ 8 bytes of br as a little-endian unsigned
// integer. The bytes are decoded in place from br's buffer, so a field
// costs no allocation.
func readLE(br *bufio.Reader, n int) (uint64, error) {
	p, err := peek(br, n)
	if err != nil {
		return 0, err
	}
	var b [8]byte
	copy(b[:], p)
	br.Discard(n)
	return binary.LittleEndian.Uint64(b[:]), nil
}

// readName reads an n-byte member name. When it equals want (the name
// another manifest already decoded for this member) want itself is
// returned, so the name is not decoded twice; otherwise it is copied
// out of br's buffer, or read whole when it is longer than the buffer.
func readName(br *bufio.Reader, n int, want string) (string, error) {
	if n > br.Size() {
		name := make([]byte, n)
		if _, err := io.ReadFull(br, name); err != nil {
			return "", err
		}
		return string(name), nil
	}
	p, err := peek(br, n)
	if err != nil {
		return "", err
	}
	name := want
	if string(p) != want {
		name = string(p)
	}
	br.Discard(n)
	return name, nil
}

// readStoreU64 reads one manifest field, which must not exceed limit.
func readStoreU64(br *bufio.Reader, what string, limit uint64) (uint64, error) {
	v, err := readLE(br, 8)
	if err != nil {
		return 0, fmt.Errorf("alae: reading store %s: %w", what, err)
	}
	if v > limit {
		return 0, fmt.Errorf("alae: implausible store %s %d", what, v)
	}
	return v, nil
}

// minMemberRecord is the manifest bytes of a member with an empty name:
// name length, sequence length and flags.
const minMemberRecord = 8 + 8 + 1

// readStoreManifest parses and validates writeStoreManifest's output:
// the header, then every generation's member directory. want, when
// set, is the directory MANIFEST's entry for the generation file being
// read: its names are reused wherever the file's names equal them.
// size is the input's length in bytes when known, and -1 otherwise.
func readStoreManifest(br *bufio.Reader, want *genManifest, size int64) ([]*genManifest, uint64, error) {
	stamp, err := readStoreHeader(br)
	if err != nil {
		return nil, 0, err
	}
	genCount, err := readStoreU64(br, "generation count", maxStoreMembers)
	if err != nil {
		return nil, 0, err
	}
	if genCount == 0 {
		return nil, 0, fmt.Errorf("alae: store holds no generations")
	}
	total := uint64(0) // declared concatenation length, overflow-guarded
	left := size - 28  // when size is known: bytes unread after header and count
	manifests := make([]*genManifest, 0, min(int(genCount), 1024))
	seen := make(map[uint64]bool)
	for gi := uint64(0); gi < genCount; gi++ {
		id, err := readStoreU64(br, "generation id", 1<<62)
		if err != nil {
			return nil, 0, err
		}
		if seen[id] {
			return nil, 0, fmt.Errorf("alae: store holds generation %d twice", id)
		}
		seen[id] = true
		gm := &genManifest{id: id}
		members, err := readStoreU64(br, "member count", maxStoreMembers)
		if err != nil {
			return nil, 0, err
		}
		if members == 0 {
			return nil, 0, fmt.Errorf("alae: store generation %d has no members", gm.id)
		}
		left -= 16
		// Never pre-allocate from the untrusted count alone. When the
		// input's size is known, no more members than minimal records
		// fit in what is left of it, so the directory is sized once;
		// otherwise it grows as member records actually arrive, so a
		// truncated or hostile header fails on a short read instead of
		// committing gigabytes up front.
		capacity := min(int(members), 4096)
		if size >= 0 {
			capacity = int(min(members, uint64(max(left, 0))/minMemberRecord))
		}
		gm.names = make([]string, 0, capacity)
		gm.lengths = make([]int, 0, capacity)
		for i := 0; i < int(members); i++ {
			nameLen, err := readStoreU64(br, "name length", maxStoreNameLen)
			if err != nil {
				return nil, 0, err
			}
			left -= minMemberRecord + int64(nameLen)
			var wantName string
			if want != nil && i < len(want.names) {
				wantName = want.names[i]
			}
			name, err := readName(br, int(nameLen), wantName)
			if err != nil {
				return nil, 0, fmt.Errorf("alae: reading store member name: %w", err)
			}
			gm.names = append(gm.names, name)
			seqLen, err := readStoreU64(br, "member length", maxStoreSeqLen)
			if err != nil {
				return nil, 0, err
			}
			gm.lengths = append(gm.lengths, int(seqLen))
			if total += seqLen + 1; total > maxStoreSeqLen {
				// Individually-plausible member lengths must also sum to a
				// plausible database: this is what keeps every later
				// length computation (seq.NewTable's offsets, the payload
				// bound below) inside int range on hostile manifests.
				return nil, 0, fmt.Errorf("alae: implausible store total length (> %d)", int64(maxStoreSeqLen))
			}
			flags, err := br.ReadByte()
			if err != nil {
				return nil, 0, fmt.Errorf("alae: reading store member flags: %w", err)
			}
			if flags&^1 != 0 {
				return nil, 0, fmt.Errorf("alae: unknown store member flags %#x", flags)
			}
			if flags&1 != 0 {
				if gm.dead == nil {
					gm.dead = make([]bool, int(members))
				}
				gm.dead[i] = true
				gm.ndead++
			}
		}
		manifests = append(manifests, gm)
	}
	return manifests, stamp, nil
}

// readIndexPayload reads one length-prefixed index payload whose
// index must cover exactly textLen characters. The manifest already
// says how long the text is, so the payload frame gets a tight
// plausibility bound (the index serialization takes a few bytes per
// character at most) instead of a blanket huge one.
func readIndexPayload(br *bufio.Reader, textLen int, what string) (*Index, error) {
	maxPayload := 64*uint64(textLen) + (1 << 20)
	payloadLen, err := readLE(br, 8)
	if err != nil {
		return nil, fmt.Errorf("alae: reading store %s payload length: %w", what, err)
	}
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("alae: implausible store %s payload length %d", what, payloadLen)
	}
	// Decode straight from the frame: the decoder's reads grow as bytes
	// arrive, so a crafted length pointing past the end of a short file
	// fails on EOF, and it must end exactly at the frame's end.
	ix, err := decodeIndex(io.LimitReader(br, int64(payloadLen)))
	if err != nil {
		return nil, fmt.Errorf("alae: store %s: %w", what, err)
	}
	if ix.Len() != textLen {
		return nil, fmt.Errorf("alae: store %s text length %d does not match manifest length %d",
			what, ix.Len(), textLen)
	}
	return ix, nil
}

// loadGenPayload reads and validates one generation's index payload
// and assembles the generation.
func loadGenPayload(br *bufio.Reader, gm *genManifest) (*generation, error) {
	g := &generation{
		id:    gm.id,
		tab:   seq.NewTable(gm.names, gm.lengths),
		masks: make([]byteMask, len(gm.names)),
		dead:  gm.dead,
		ndead: gm.ndead,
	}
	ix, err := readIndexPayload(br, g.tab.TotalLen(), fmt.Sprintf("generation %d", gm.id))
	if err != nil {
		return nil, err
	}
	// The payload is the plain serialized index; the barrier is an
	// engine option, not persisted state, so re-arm it here exactly as
	// buildGeneration would have (engines build lazily at search time,
	// after this).
	ix.barrier = seq.Separator
	g.ix = ix
	// Spot-check the separator layout the manifest promises, and
	// recover each member's byte mask from its text slice (σ after a
	// future delete needs per-member masks, not one global set).
	text := g.ix.Text()
	for m := 0; m < g.tab.Len(); m++ {
		if m > 0 && text[g.tab.Start(m)-1] != seq.Separator {
			return nil, fmt.Errorf("alae: store generation %d member %d is not separator-framed", gm.id, m)
		}
		start := g.tab.Start(m)
		g.masks[m] = maskOf(text[start : start+g.tab.SeqLen(m)])
	}
	return g, nil
}
