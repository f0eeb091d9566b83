package serve

import (
	"encoding/json"
	"strconv"
	"sync"

	alae "repro"
)

// The /search body is written by appending, not by reflection: a
// protein answer carries hundreds of thousands of hits of six fields
// each, and encoding/json walking a second []SearchHit copy of them was
// a twentieth of the daemon's CPU. SearchResponse and SearchHit remain
// the body's schema — what clients and tests decode into — and
// TestSearchBodyMatchesSchema holds the two together.

// bodyPool recycles response buffers across requests, so a warm daemon
// encodes without growing one per answer.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it (a string cannot fail to marshal).
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s)
	return append(b, q...)
}

// appendSearchBody appends the POST /search response for res, whose
// hits to send (all of them, or the best MaxHits when truncated) are
// hits. A member's name is escaped once per run of its hits, and hits
// arrive grouped by member whenever they are not truncated.
func appendSearchBody(b []byte, res *alae.StoreResult, hits []alae.SeqHit, truncated bool, elapsedMS float64) []byte {
	b = append(b, `{"threshold":`...)
	b = strconv.AppendInt(b, int64(res.Threshold), 10)
	b = append(b, `,"algorithm":`...)
	b = appendString(b, res.Algorithm.String())
	b = append(b, `,"total_hits":`...)
	b = strconv.AppendInt(b, int64(len(res.Hits)), 10)
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = append(b, `,"hits":[`...)
	var name []byte // `{"name":<escaped>,"member":<n>` of the current member
	member := -1
	for i, h := range hits {
		if i > 0 {
			b = append(b, ',')
		}
		if h.Member != member {
			member = h.Member
			name = append(name[:0], `{"name":`...)
			name = appendString(name, h.Name)
			name = append(name, `,"member":`...)
			name = strconv.AppendInt(name, int64(h.Member), 10)
		}
		b = append(b, name...)
		b = append(b, `,"t_end":`...)
		b = strconv.AppendInt(b, int64(h.TEnd), 10)
		b = append(b, `,"local_t_end":`...)
		b = strconv.AppendInt(b, int64(h.LocalTEnd), 10)
		b = append(b, `,"q_end":`...)
		b = strconv.AppendInt(b, int64(h.QEnd), 10)
		b = append(b, `,"score":`...)
		b = strconv.AppendInt(b, int64(h.Score), 10)
		b = append(b, '}')
	}
	b = append(b, `],"elapsed_ms":`...)
	b = strconv.AppendFloat(b, elapsedMS, 'f', -1, 64)
	if res.Stats.QueryCacheHits > 0 {
		b = append(b, `,"cached":true`...)
	}
	return append(b, "}\n"...)
}
