package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"datanet/internal/records"
)

// recordsDigest hashes every record's (Sub, Time, Rating, Payload) in
// order, length-prefixing the strings so field boundaries are unambiguous.
func recordsDigest(recs []records.Record) string {
	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putStr := func(s string) {
		putU64(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, r := range recs {
		putStr(r.Sub)
		putU64(uint64(r.Time))
		putU64(math.Float64bits(r.Rating))
		putStr(r.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMoviesDigest pins the generator's exact output, including the order
// of records that share a timestamp (the sort must stay stable). The
// tie-heavy configuration collapses most review lags to zero seconds so
// thousands of records share their movie's release instant.
func TestMoviesDigest(t *testing.T) {
	cases := []struct {
		name string
		cfg  MovieConfig
		want string
	}{
		{"default", MovieConfig{Movies: 200, Reviews: 20000, SpanDays: 365, Seed: 42}, "3e1806bf098ddba7932d2cb46a18c9f019374a3861ce764741146044c6653fb6"},
		{"tie-heavy", MovieConfig{Movies: 50, Reviews: 20000, SpanDays: 30, DecayDays: 1e-6, TailFrac: -1, Seed: 3}, "0903d8943c250bd158922e6fae386c7706b86fe07f7abafecdc47a45ec4028a1"},
	}
	for _, c := range cases {
		got := recordsDigest(Movies(c.cfg))
		if got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkMovies times one movie-log generation at the size of a
// straggler-sweep dataset (128 blocks of 64 KiB); run with -benchmem.
func BenchmarkMovies(b *testing.B) {
	cfg := MovieConfig{Movies: 500, Reviews: 128 * (64 << 10) / 305, SpanDays: 365, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Movies(cfg)
	}
}
