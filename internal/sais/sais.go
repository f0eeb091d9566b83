// Package sais constructs suffix arrays in linear time with the SA-IS
// algorithm (Nong, Zhang, Chan 2009). The suffix array is the substrate
// under the BWT and the compressed suffix array that ALAE (and the
// BWT-SW baseline) use to emulate the suffix trie of the text (§2.3 and
// §5 of the paper).
//
// The construction works inside the output array. Level 0 reads the
// byte text in place; the reduced string of each recursion level, its
// LMS-substring names and lengths all live in unused parts of sa, so
// beyond sa the only memory is the bucket table of each level (and, at
// most, one bucket-sized buffer when sa has no room for it). Type
// information (L or S) is never stored: each scan recomputes it from
// two neighbouring symbols, and the induce passes carry it in the sign
// of the queued suffix-array entries. The scan structure follows Go's
// index/suffixarray, written once for both symbol widths.
package sais

import "math"

// symbol is the alphabet of one recursion level: the text's bytes at
// level 0, LMS-substring names below it.
type symbol interface{ ~byte | ~int32 }

// Build returns the suffix array of text: a permutation sa of
// [0, len(text)) such that text[sa[i]:] < text[sa[i+1]:] in
// lexicographic order. A virtual sentinel smaller than every byte is
// assumed at the end of the text (it is not included in the result).
// An int32 suffix array indexes at most 2^31-1 bytes; Build panics on a
// longer text rather than return a wrong array.
func Build(text []byte) []int32 {
	if len(text) > math.MaxInt32 {
		panic("sais: text longer than 2^31-1 bytes")
	}
	sa := make([]int32, len(text))
	build(text, sa, 256, make([]int32, 2*256))
	return sa
}

// build computes the suffix array of s, whose symbols lie in
// [0, sigma), into sa. sa must be zeroed and as long as s. tmp is
// scratch of at least sigma entries; with 2·sigma it also keeps the
// symbol frequencies, so the bucket bounds are not recounted per pass.
func build[T symbol](s []T, sa []int32, sigma int, tmp []int32) {
	switch len(s) {
	case 0:
		return
	case 1:
		sa[0] = 0
		return
	}
	var freq, bucket []int32
	if len(tmp) >= 2*sigma {
		freq, bucket = tmp[:sigma], tmp[sigma:2*sigma]
		countFreq(s, freq)
	} else {
		bucket = tmp[:sigma]
	}

	numLMS := placeLMS(s, sa, freq, bucket)
	if numLMS > 1 {
		// Sort the LMS substrings, name them, and sort the LMS suffixes
		// by recursing on the string of names when names repeat.
		induceSubL(s, sa, freq, bucket)
		induceSubS(s, sa, freq, bucket)
		recordLengths(s, sa, sigma <= 256)
		maxID := nameLMS(s, sa, numLMS)
		if maxID < numLMS {
			reduce(sa)
			sortReduced(sa, tmp, numLMS, maxID)
			if freq != nil {
				countFreq(s, freq) // the recursion may have used tmp
			}
			unmapReduced(s, sa, numLMS)
		} else {
			copy(sa, sa[len(sa)-numLMS:])
		}
		expand(s, sa, freq, bucket, numLMS)
	}
	induceL(s, sa, freq, bucket)
	induceS(s, sa, freq, bucket)
}

// countFreq counts the occurrences of each symbol of s into freq.
func countFreq[T symbol](s []T, freq []int32) {
	clear(freq)
	for _, c := range s {
		freq[c]++
	}
}

// bucketBounds fills bucket with the first index of each symbol's
// bucket (ends false) or one past its last index (ends true). With no
// cached frequencies it counts them into bucket first.
func bucketBounds[T symbol](s []T, freq, bucket []int32, ends bool) {
	if freq == nil {
		countFreq(s, bucket)
		freq = bucket
	}
	var total int32
	for i, f := range freq {
		if ends {
			total += f
			bucket[i] = total
		} else {
			bucket[i] = total
			total += f
		}
	}
}

// placeLMS writes the start of every LMS substring (an S-type position
// preceded by an L-type one) to the tail of its bucket and returns
// their number. The starts double as the ends of the preceding LMS
// substrings; the leftmost start ends none, so when the recursion will
// run (more than one LMS position) it is left out. The end of the last
// LMS substring is the virtual sentinel, which has no bucket: the
// induce passes seed its L-type predecessor len(s)-1 themselves.
// Position 0 is never an LMS start, so 0 marks an empty slot.
func placeLMS[T symbol](s []T, sa, freq, bucket []int32) int {
	bucketBounds(s, freq, bucket, true)
	numLMS, lastB := 0, int32(-1)
	// Scanning right to left, c0 = s[i] and c1 = s[i+1], and isS is the
	// type of i+1. The sentinel's own LMS position is not recorded, so
	// the scan starts as if len(s) were L-type.
	var c0, c1 T
	isS := false
	for i := len(s) - 1; i >= 0; i-- {
		c0, c1 = s[i], c0
		if c0 < c1 {
			isS = true
		} else if c0 > c1 && isS {
			isS = false
			b := bucket[c1] - 1
			bucket[c1] = b
			sa[b] = int32(i + 1)
			lastB = b
			numLMS++
		}
	}
	if numLMS > 1 {
		sa[lastB] = 0
	}
	return numLMS
}

// induceSubL inserts the L-type positions of the LMS substrings, given
// the substring ends at their bucket tails, and leaves in sa only the
// leftmost L-type position of each substring. A queued entry j > 0
// means j-1 is L-type and is placed now; the placed position k is
// queued again as k when k-1 is L-type too, or as -k when k-1 is
// S-type, which stops its chain and keeps it for induceSubS.
func induceSubL[T symbol](s []T, sa, freq, bucket []int32) {
	bucketBounds(s, freq, bucket, false)
	// The virtual sentinel's predecessor comes first.
	k := len(s) - 1
	if s[k-1] < s[k] {
		k = -k
	}
	c := s[len(s)-1]
	sa[bucket[c]] = int32(k)
	bucket[c]++
	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j == 0 {
			continue
		}
		if j < 0 {
			sa[i] = int32(-j)
			continue
		}
		sa[i] = 0
		k := j - 1
		c0, c1 := s[k-1], s[k]
		if c0 < c1 {
			k = -k
		}
		b := bucket[c1]
		sa[b] = int32(k)
		bucket[c1] = b + 1
	}
}

// induceSubS is induceSubL's mirror for S-type positions, scanning
// right to left from the bucket tails. Entries -k it meets are LMS
// substring starts: it packs them, sorted by substring, into the top
// numLMS slots of sa and clears everything else.
func induceSubS[T symbol](s []T, sa, freq, bucket []int32) {
	bucketBounds(s, freq, bucket, true)
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j == 0 {
			continue
		}
		sa[i] = 0
		if j < 0 {
			top--
			sa[top] = int32(-j)
			continue
		}
		k := j - 1
		c0, c1 := s[k-1], s[k]
		if c0 > c1 {
			k = -k
		}
		b := bucket[c1] - 1
		sa[b] = int32(k)
		bucket[c1] = b
	}
}

// recordLengths stores, for each LMS substring starting at j, its
// length (both LMS ends included) at sa[j/2]: LMS starts are never
// adjacent, so the slots are distinct and all lie below the packed
// starts. The last substring, the only one ending at the sentinel,
// records 0 so that it names apart from every other without a text
// comparison. When pack is set (every symbol fits a byte) a substring
// of at most four symbols records its symbols instead, as the
// complement of (c+1) bytes, the leftmost symbol lowest; the code is
// ≥ len(s), so it cannot be read as a length, and two substrings with
// equal codes are equal without reading the text. The top byte of the
// code is the substring's last symbol, an S-type one and therefore
// never the largest symbol, so it is never the wrapped (c+1)&0xff = 0.
func recordLengths[T symbol](s []T, sa []int32, pack bool) {
	end := 0 // one past the end of the LMS substring to the right; 0 before the first
	var cx uint32
	var c0, c1 T
	isS := false
	for i := len(s) - 1; i >= 0; i-- {
		c0, c1 = s[i], c0
		cx = cx<<8 | (uint32(c1)+1)&0xff
		if c0 < c1 {
			isS = true
		} else if c0 > c1 && isS {
			isS = false
			j := i + 1
			var code int32
			if end != 0 {
				code = int32(end - j)
				if pack && code <= 4 && ^cx >= uint32(len(s)) {
					code = int32(^cx)
				}
			}
			sa[j>>1] = code
			end = j + 1
			cx = (uint32(c1) + 1) & 0xff
		}
	}
}

// nameLMS walks the LMS starts in substring order (the top numLMS
// slots), gives equal neighbouring substrings the same name from 1 up,
// writes each name over the length at sa[j/2] and returns the largest.
func nameLMS[T symbol](s []T, sa []int32, numLMS int) int {
	id := 0
	lastLen, lastPos := int32(-1), int32(0)
	for _, j := range sa[len(sa)-numLMS:] {
		n := sa[j/2]
		if n != lastLen || (uint32(n) < uint32(len(s)) && !equalRun(s, int(lastPos), int(j), int(n))) {
			id++
			lastPos, lastLen = j, n
		}
		sa[j/2] = int32(id)
	}
	return id
}

// equalRun reports whether s[a:a+n] equals s[b:b+n].
func equalRun[T symbol](s []T, a, b, n int) bool {
	x, y := s[a:a+n], s[b:b+n]
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// reduce gathers the names, in text order, into the top of sa as the
// reduced string over [0, maxID). The names sit in sa[:len(sa)/2+1].
// LMS starts lie in [1, len(sa)-2] and are never adjacent, so there are
// at most (len(sa)-1)/2 of them: the top region starts above the
// middle, and reading down from the middle never meets a slot already
// written.
func reduce(sa []int32) {
	w := len(sa)
	for i := len(sa) / 2; i >= 0; i-- {
		if j := sa[i]; j > 0 {
			w--
			sa[w] = j - 1
		}
	}
}

// sortReduced builds the suffix array of the reduced string (the top
// numLMS slots of sa) into the bottom numLMS slots. Its bucket table
// uses the larger of tmp and the free middle of sa, and is allocated
// only when neither holds maxID entries.
func sortReduced(sa, tmp []int32, numLMS, maxID int) {
	dst, free, text := sa[:numLMS], sa[numLMS:len(sa)-numLMS], sa[len(sa)-numLMS:]
	if len(free) > len(tmp) {
		tmp = free
	}
	if len(tmp) < maxID {
		tmp = make([]int32, maxID)
	}
	clear(dst)
	build(text, dst, maxID, tmp)
}

// unmapReduced turns the reduced suffix array in sa[:numLMS] into text
// positions: it lists the LMS starts in text order in the top of sa
// and looks each reduced index up there.
func unmapReduced[T symbol](s []T, sa []int32, numLMS int) {
	pos := sa[len(sa)-numLMS:]
	j := len(pos)
	var c0, c1 T
	isS := false
	for i := len(s) - 1; i >= 0; i-- {
		c0, c1 = s[i], c0
		if c0 < c1 {
			isS = true
		} else if c0 > c1 && isS {
			isS = false
			j--
			pos[j] = int32(i + 1)
		}
	}
	for i, r := range sa[:numLMS] {
		sa[i] = pos[r]
	}
}

// expand moves the sorted LMS suffixes from sa[:numLMS] to the tails
// of their buckets, keeping their order, and clears every other slot.
// Working from the top down, a suffix never moves below its own slot,
// so none is overwritten before it is moved.
func expand[T symbol](s []T, sa, freq, bucket []int32, numLMS int) {
	bucketBounds(s, freq, bucket, true)
	x := numLMS - 1
	saX := sa[x]
	c := s[saX]
	b := bucket[c] - 1
	bucket[c] = b
	for i := len(sa) - 1; i >= 0; i-- {
		if i != int(b) {
			sa[i] = 0
			continue
		}
		sa[i] = saX
		if x > 0 {
			x--
			saX = sa[x]
			c = s[saX]
			b = bucket[c] - 1
			bucket[c] = b
		}
	}
}

// induceL places every L-type suffix from the sorted LMS suffixes, left
// to right. As in induceSubL the sign of a placed entry k carries the
// type of k-1: negative entries (k-1 is S-type) wait for induceS. Now
// 0 is a real suffix, but it has no predecessor to place, so skipping
// it like an empty slot is harmless.
func induceL[T symbol](s []T, sa, freq, bucket []int32) {
	bucketBounds(s, freq, bucket, false)
	k := len(s) - 1
	if s[k-1] < s[k] {
		k = -k
	}
	c := s[len(s)-1]
	sa[bucket[c]] = int32(k)
	bucket[c]++
	for i := 0; i < len(sa); i++ {
		j := int(sa[i])
		if j <= 0 {
			continue
		}
		k := j - 1
		c1 := s[k]
		if s[max(k-1, 0)] < c1 { // k = 0 has no sign
			k = -k
		}
		b := bucket[c1]
		sa[b] = int32(k)
		bucket[c1] = b + 1
	}
}

// induceS places every S-type suffix right to left from the bucket
// tails, over the LMS seeds, and makes every entry positive.
func induceS[T symbol](s []T, sa, freq, bucket []int32) {
	bucketBounds(s, freq, bucket, true)
	for i := len(sa) - 1; i >= 0; i-- {
		j := int(sa[i])
		if j >= 0 {
			continue
		}
		j = -j
		sa[i] = int32(j)
		k := j - 1
		c1 := s[k]
		if s[max(k-1, 0)] <= c1 { // k = 0 has no sign
			k = -k
		}
		b := bucket[c1] - 1
		sa[b] = int32(k)
		bucket[c1] = b
	}
}
