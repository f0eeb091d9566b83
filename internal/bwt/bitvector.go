package bwt

import "math/bits"

// rankBitVector is a bit vector with O(1) rank support, used to mark
// which suffix-array rows carry a position sample. Rank queries use a
// single superblock lookup plus popcounts within the block.
type rankBitVector struct {
	words []uint64
	super []int32 // cumulative popcount before each superblock of 8 words
	n     int
}

const wordsPerSuper = 8

func newRankBitVector(n int) *rankBitVector {
	return rankBitVectorOver(make([]uint64, (n+63)/64), n)
}

// rankBitVectorOver returns a vector of n bits held in words, which
// must number (n+63)/64.
func rankBitVectorOver(words []uint64, n int) *rankBitVector {
	return &rankBitVector{
		words: words,
		super: make([]int32, (len(words)+wordsPerSuper-1)/wordsPerSuper+1),
		n:     n,
	}
}

// Set sets bit i. All Sets must happen before Finish.
func (v *rankBitVector) Set(i int) {
	v.words[i/64] |= 1 << (uint(i) % 64)
}

// Get reports bit i.
func (v *rankBitVector) Get(i int) bool {
	return v.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Finish builds the superblock directory. Call once after all Sets.
func (v *rankBitVector) Finish() {
	var sum int32
	for w := 0; w < len(v.words); w++ {
		if w%wordsPerSuper == 0 {
			v.super[w/wordsPerSuper] = sum
		}
		sum += int32(bits.OnesCount64(v.words[w]))
	}
	v.super[len(v.super)-1] = sum
}

// Rank returns the number of set bits in [0, i).
func (v *rankBitVector) Rank(i int) int {
	w := i / 64
	r := int(v.super[w/wordsPerSuper])
	for k := w - w%wordsPerSuper; k < w; k++ {
		r += bits.OnesCount64(v.words[k])
	}
	if off := uint(i) % 64; off != 0 {
		r += bits.OnesCount64(v.words[w] << (64 - off))
	}
	return r
}

// SizeBytes returns the memory footprint of the vector.
func (v *rankBitVector) SizeBytes() int {
	return 8*len(v.words) + 4*len(v.super)
}
