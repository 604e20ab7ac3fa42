package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ann"
)

// TestPartialBinaryRoundTrip pins the codec's identity property over
// real engine output: Marshal∘Unmarshal reproduces the partial byte
// for byte (compared through the canonical JSON rendering, which
// round-trips float64 exactly), across leaderboard shapes, shard
// ranges, and kernel tiers.
func TestPartialBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		lo, hi int
	}{
		{"full", Config{TopK: 5, ChunkSize: 64, Workers: 2}, 0, 0},
		{"frontier-only", Config{TopK: -1, ChunkSize: 32}, 0, 0},
		{"shard", Config{TopK: 3, ChunkSize: 16}, 40, 104},
		{"fast32", Config{TopK: 5, ChunkSize: 64, Kernel: ann.KernelFast32}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := runPartialRange(t, tc.cfg, tc.lo, tc.hi)
			data, err := p.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Partial
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if want, have := partialJSON(t, p), partialJSON(t, &got); !bytes.Equal(want, have) {
				t.Fatalf("binary round-trip changed the partial:\nwant %s\ngot  %s", want, have)
			}
		})
	}
}

// TestPartialBinaryMergeParity asserts the codec preserves the merge
// algebra: shards that each cross the wire binary-encoded merge into
// the same bytes as the unencoded whole-range run.
func TestPartialBinaryMergeParity(t *testing.T) {
	cfg := Config{TopK: 4, ChunkSize: 32}
	whole := runPartialRange(t, cfg, 0, 0)
	mid := (whole.End - whole.Start) / 2

	ship := func(p *Partial) *Partial {
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var out Partial
		if err := out.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		return &out
	}
	left := ship(runPartialRange(t, cfg, 0, mid))
	right := ship(runPartialRange(t, cfg, mid, 0))
	if err := left.Merge(right); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if want, have := partialJSON(t, whole), partialJSON(t, left); !bytes.Equal(want, have) {
		t.Fatalf("binary-shipped merge diverged:\nwant %s\ngot  %s", want, have)
	}
}

// TestPartialBinaryRejectsCorrupt walks the decoder's failure modes:
// bad magic, truncation at every byte boundary, and trailing garbage
// must all error (never panic, never succeed).
func TestPartialBinaryRejectsCorrupt(t *testing.T) {
	p := runPartialRange(t, Config{TopK: 2, ChunkSize: 32}, 0, 0)
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Partial
	if err := out.UnmarshalBinary(nil); err == nil {
		t.Error("empty input decoded")
	}
	bad := append([]byte("XXXX"), data[4:]...)
	if err := out.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic decoded")
	}
	for n := 0; n < len(data); n++ {
		if err := out.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(data))
		}
	}
	if err := out.UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte decoded")
	}
	// A bool byte other than 0 or 1 — here the top-k presence flag —
	// has no canonical re-encoding and must be rejected by offset.
	flag := 4 + 4 + len(p.Space) + 3*8 + 4 + len(p.Kernel) + 4
	for _, m := range p.Metrics {
		flag += 4 + len(m.Name) + 1
	}
	if data[flag] != 1 {
		t.Fatalf("byte %d is %d, not the top-k presence flag", flag, data[flag])
	}
	bad = append([]byte(nil), data...)
	bad[flag] = 2
	if err := out.UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", flag)) {
		t.Errorf("presence flag 2 decoded or error names no offset: %v", err)
	}
}

// FuzzPartialBinary hardens the decoder against arbitrary bytes: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to exactly the bytes it was decoded from (the encoding is
// canonical, so no two frames decode to the same partial).
func FuzzPartialBinary(f *testing.F) {
	set, sp := testSet(f)
	for _, cfg := range []Config{{TopK: 3, ChunkSize: 32}, {TopK: -1, ChunkSize: 64}} {
		p, err := RunPartial(context.Background(), sp, set, cfg)
		if err != nil {
			f.Fatal(err)
		}
		seed, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(partialMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Partial
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input re-encodes differently:\nin  %x\nout %x", data, enc)
		}
	})
}
