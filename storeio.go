package alae

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/seq"
)

// Store persistence: a versioned manifest — generations, member names
// and lengths, tombstone flags — framing the existing per-index
// serialization, so a saved store round-trips through the Index.Save
// format (including its own versioning and rank-layout tags). Each
// index payload is length-prefixed, which keeps the indexes' internal
// buffered readers from consuming past their own frame.
//
// Version history: 1 and 2 persisted one index payload per shard; 3
// persists ONE index payload per generation, with a mutation stamp,
// per-generation ids and member flags (bit 0 = tombstoned). Only
// version 3 is read: no v1/v2 file was ever deployed.
//
// The same format also serves as the per-generation file of a
// directory-backed store (storegen.go), where each generation is
// written as a single-generation store file and the MANIFEST file owns
// the tombstones.

// storeMagic opens every serialised store.
var storeMagic = [8]byte{'A', 'L', 'A', 'E', 'S', 'T', 'O', 'R'}

// storeVersion is the manifest format version this build writes.
const storeVersion uint32 = 3

// sane upper bounds for manifest fields: a reload of hostile or
// corrupt bytes must fail with a message, not an allocation storm.
const (
	maxStoreMembers = 1 << 28
	maxStoreNameLen = 1 << 20
	maxStoreSeqLen  = 1 << 40
)

// byteWriter is a sticky-error little-endian writer for manifest
// framing: callers emit fields unconditionally and check once at
// flush.
type byteWriter struct {
	w   *bufio.Writer
	err error
}

func newByteWriter(w io.Writer) *byteWriter { return &byteWriter{w: bufio.NewWriter(w)} }

func (b *byteWriter) bytes(p []byte) {
	if b.err == nil {
		_, b.err = b.w.Write(p)
	}
}

func (b *byteWriter) str(s string) {
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}

func (b *byteWriter) u8(v uint8) {
	if b.err == nil {
		b.err = b.w.WriteByte(v)
	}
}

func (b *byteWriter) u32(v uint32) {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], v)
	b.bytes(p[:])
}

func (b *byteWriter) u64(v uint64) {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], v)
	b.bytes(p[:])
}

func (b *byteWriter) flush() error {
	if b.err != nil {
		return b.err
	}
	return b.w.Flush()
}

// byteReader is byteWriter's in-memory counterpart for small fixed
// records (the directory manifest). Short input surfaces as a sticky
// io.ErrUnexpectedEOF.
type byteReader struct {
	data []byte
	err  error
}

func newByteReader(data []byte) *byteReader { return &byteReader{data: data} }

func (b *byteReader) take(n int) []byte {
	if b.err != nil {
		return nil
	}
	if len(b.data) < n {
		b.err = io.ErrUnexpectedEOF
		return nil
	}
	p := b.data[:n]
	b.data = b.data[n:]
	return p
}

func (b *byteReader) bytes(p []byte) { copy(p, b.take(len(p))) }

func (b *byteReader) u32() uint32 {
	if p := b.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (b *byteReader) u64() uint64 {
	if p := b.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

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
// generation's index (text plus compressed suffix array). The format
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

// saveGenerations writes gens in the version-3 format: one index
// payload per generation, no shard list. Index serialization is
// deterministic, so the counting pre-pass's size is exact; the tee's
// post-check turns any violation of that assumption into a save error
// instead of a corrupt file.
func saveGenerations(w io.Writer, gens []*generation, stamp uint64) error {
	bw := newByteWriter(w)
	bw.bytes(storeMagic[:])
	bw.u32(storeVersion)
	bw.u64(stamp)
	bw.u64(uint64(len(gens)))
	for _, g := range gens {
		bw.u64(g.id)
		bw.u64(uint64(g.tab.Len()))
		for m := 0; m < g.tab.Len(); m++ {
			name := g.tab.Name(m)
			bw.u64(uint64(len(name)))
			bw.str(name)
			bw.u64(uint64(g.tab.SeqLen(m)))
			var flags uint8
			if g.isDead(m) {
				flags |= 1
			}
			bw.u8(flags)
		}
	}
	if err := bw.flush(); err != nil {
		return err
	}
	for _, g := range gens {
		ix := g.ix
		var cnt countingSink
		if err := ix.Save(&cnt); err != nil {
			return err
		}
		var pfx [8]byte
		binary.LittleEndian.PutUint64(pfx[:], uint64(cnt.n))
		if _, err := w.Write(pfx[:]); err != nil {
			return err
		}
		tee := countingTee{w: w}
		if err := ix.Save(&tee); err != nil {
			return err
		}
		if tee.n != cnt.n {
			return fmt.Errorf("alae: saving store: generation payload measured %d bytes but wrote %d", cnt.n, tee.n)
		}
	}
	return nil
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
// Save's format). A directory path loads the generation-directory
// layout written by SaveDir, sweeping any debris an interrupted
// mutation left behind.
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
	return LoadStore(f, opts)
}

// LoadStore reads a store written by Save (format version 3). The
// generation list comes from the manifest; opts.Shards sets only the
// loaded store's search-time lane count (it is a parallelism knob —
// see StoreOptions — and is never persisted), while opts.QueryCacheSize
// configures the (runtime-only, never persisted) query cache.
func LoadStore(r io.Reader, opts StoreOptions) (*Store, error) {
	gens, stamp, err := loadGenerations(r)
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

// loadGenerations parses Save's format: magic, version, the manifest
// of every generation, then one index payload per generation in order.
func loadGenerations(r io.Reader) ([]*generation, uint64, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("alae: reading store: %w", err)
	}
	if magic != storeMagic {
		return nil, 0, fmt.Errorf("alae: not a store file (bad magic %q)", magic[:])
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, 0, fmt.Errorf("alae: reading store version: %w", err)
	}
	if version != storeVersion {
		return nil, 0, fmt.Errorf("alae: unsupported store version %d (this build reads version %d only)", version, storeVersion)
	}
	u64 := func(what string, limit uint64) (uint64, error) {
		var v uint64
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return 0, fmt.Errorf("alae: reading store %s: %w", what, err)
		}
		if v > limit {
			return 0, fmt.Errorf("alae: implausible store %s %d", what, v)
		}
		return v, nil
	}
	stamp, err := u64("stamp", 1<<62)
	if err != nil {
		return nil, 0, err
	}
	genCount, err := u64("generation count", maxStoreMembers)
	if err != nil {
		return nil, 0, err
	}
	if genCount == 0 {
		return nil, 0, fmt.Errorf("alae: store holds no generations")
	}
	total := uint64(0) // declared concatenation length, overflow-guarded
	manifests := make([]*genManifest, 0, min(int(genCount), 1024))
	seen := make(map[uint64]bool)
	for gi := uint64(0); gi < genCount; gi++ {
		id, err := u64("generation id", 1<<62)
		if err != nil {
			return nil, 0, err
		}
		if seen[id] {
			return nil, 0, fmt.Errorf("alae: store holds generation %d twice", id)
		}
		seen[id] = true
		gm := &genManifest{id: id}
		members, err := u64("member count", maxStoreMembers)
		if err != nil {
			return nil, 0, err
		}
		if members == 0 {
			return nil, 0, fmt.Errorf("alae: store generation %d has no members", gm.id)
		}
		// Grow the directory incrementally rather than pre-allocating
		// from the untrusted count: every member read consumes manifest
		// bytes, so a truncated or hostile header fails on a short read
		// instead of committing gigabytes up front.
		gm.names = make([]string, 0, min(int(members), 4096))
		gm.lengths = make([]int, 0, min(int(members), 4096))
		for i := 0; i < int(members); i++ {
			nameLen, err := u64("name length", maxStoreNameLen)
			if err != nil {
				return nil, 0, err
			}
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, 0, fmt.Errorf("alae: reading store member name: %w", err)
			}
			gm.names = append(gm.names, string(name))
			seqLen, err := u64("member length", maxStoreSeqLen)
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

// readIndexPayload reads one length-prefixed index payload whose text
// must be exactly textLen bytes. The manifest already says how long
// the text is, so the payload frame gets a tight plausibility bound
// (the index serialization is a small multiple of its text) instead of
// a blanket huge one.
func readIndexPayload(br *bufio.Reader, textLen int, what string) (*Index, error) {
	maxPayload := 64*uint64(textLen) + (1 << 20)
	var payloadLen uint64
	if err := binary.Read(br, binary.LittleEndian, &payloadLen); err != nil {
		return nil, fmt.Errorf("alae: reading store %s payload length: %w", what, err)
	}
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("alae: implausible store %s payload length %d", what, payloadLen)
	}
	// Grow the payload buffer as bytes actually arrive (CopyN reads
	// in chunks) rather than trusting the declared length with one
	// up-front allocation: a crafted header pointing at a short file
	// fails with an EOF after consuming what exists.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, br, int64(payloadLen)); err != nil {
		return nil, fmt.Errorf("alae: reading store %s: %w", what, err)
	}
	ix, err := Load(bytes.NewReader(payload.Bytes()))
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
