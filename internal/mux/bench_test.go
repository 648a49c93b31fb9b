package mux

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"testing"
)

// benchBody is a realistic request body: one query-protocol line.
var benchBody = []byte("GROUPBY region,product\n")

// BenchmarkMuxFrameEncode measures writing one frame (header + body)
// into a buffered writer — the per-request cost every mux request and
// response pays on the wire path. The alloc gate pins this at zero
// allocations per frame.
func BenchmarkMuxFrameEncode(b *testing.B) {
	w := bufio.NewWriter(io.Discard)
	// Collect garbage, then warm the writer and the header pool, so B/op
	// counts neither the writer's buffer nor a pool refill after a GC.
	runtime.GC()
	if err := WriteFrame(w, KindReq, 0, benchBody); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(benchBody)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(w, KindReq, uint64(i), benchBody); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMuxFrameDecode measures reading one frame back. The body
// allocation is the only one allowed (ownership transfers to the
// handler); header parsing itself must not allocate, which the body=0
// case pins exactly.
func BenchmarkMuxFrameDecode(b *testing.B) {
	cases := []struct {
		name string
		body []byte
	}{
		{"body=0", nil},
		{"body=23", benchBody},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, KindRsp, 42, tc.body); err != nil {
				b.Fatal(err)
			}
			frame := buf.Bytes()
			br := bytes.NewReader(frame)
			r := bufio.NewReader(br)
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				r.Reset(br)
				kind, id, body, err := ReadFrame(r, 0)
				if err != nil {
					b.Fatal(err)
				}
				if kind != KindRsp || id != 42 || len(body) != len(tc.body) {
					b.Fatalf("decoded %s %d %d bytes", kind, id, len(body))
				}
			}
		})
	}
}
