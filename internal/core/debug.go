package core

import "fmt"

// checkBandRow, called only under the alaeDebug constant (`-tags
// alaedebug`), panics unless the merged-band row out[start:] is well
// formed: three arrays of one length, columns strictly ascending inside
// [1, mq], every stored score positive (dead cells are never stored).
func (ctx *searchCtx) checkBandRow(out *bandTriple, start int) {
	if len(out.js) != len(out.m) || len(out.js) != len(out.ga) {
		panic(fmt.Sprintf("core: band row arrays disagree: %d columns, %d scores, %d gap scores", len(out.js), len(out.m), len(out.ga)))
	}
	prev := int32(0)
	for k := start; k < len(out.js); k++ {
		if j := out.js[k]; j <= prev || int(j) > len(ctx.query) || out.m[k] <= 0 {
			panic(fmt.Sprintf("core: band row cell %d: column %d after %d (query length %d), score %d", k-start, j, prev, len(ctx.query), out.m[k]))
		}
		prev = out.js[k]
	}
}
