package comm

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"parcube/internal/agg"
)

func TestChanFabricSendRecv(t *testing.T) {
	f, err := NewChanFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	if e0.Rank() != 0 || e0.Size() != 2 {
		t.Fatal("endpoint identity wrong")
	}
	payload := []float64{1, 2, 3}
	if err := e0.Send(1, 7, 1.5, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99 // sender reuses its buffer; message must be unaffected
	msg, err := e1.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Src != 0 || msg.Dst != 1 || msg.Tag != 7 || msg.Time != 1.5 {
		t.Fatalf("message header = %+v", msg)
	}
	if msg.Data[0] != 1 || msg.Data[2] != 3 {
		t.Fatalf("payload = %v", msg.Data)
	}
}

func TestChanFabricSendBeforeRecv(t *testing.T) {
	f, _ := NewChanFabric(2)
	defer f.Close()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	// Send completes with no receiver posted (buffered mailbox).
	if err := e0.Send(1, 1, 0, []float64{42}); err != nil {
		t.Fatal(err)
	}
	msg, err := e1.Recv(0, 1)
	if err != nil || msg.Data[0] != 42 {
		t.Fatalf("recv after send: %v %v", msg, err)
	}
}

func TestChanFabricValidation(t *testing.T) {
	if _, err := NewChanFabric(0); err == nil {
		t.Fatal("size 0 accepted")
	}
	f, _ := NewChanFabric(2)
	defer f.Close()
	if _, err := f.Endpoint(5); err == nil {
		t.Fatal("bad rank accepted")
	}
	e0, _ := f.Endpoint(0)
	if err := e0.Send(0, 1, 0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := e0.Send(9, 1, 0, nil); err == nil {
		t.Fatal("bad destination accepted")
	}
	if _, err := e0.Recv(9, 1); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestChanFabricCloseUnblocksRecv(t *testing.T) {
	f, _ := NewChanFabric(2)
	e1, _ := f.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		_, err := e1.Recv(0, 9)
		done <- err
	}()
	f.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("recv after close: %v", err)
	}
	e0, _ := f.Endpoint(0)
	if err := e0.Send(1, 1, 0, nil); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestChanFabricStats(t *testing.T) {
	f, _ := NewChanFabric(2)
	defer f.Close()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	_ = e0.Send(1, 1, 0, make([]float64, 10))
	_ = e0.Send(1, 2, 0, make([]float64, 5))
	_, _ = e1.Recv(0, 1)
	_, _ = e1.Recv(0, 2)
	s := f.Stats()
	if s.Messages != 2 || s.Elements != 15 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Bytes != WireBytes(10)+WireBytes(5) {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	sum := s.Add(Stats{Messages: 1, Elements: 1, Bytes: 1})
	if sum.Messages != 3 || sum.Elements != 16 {
		t.Fatalf("Add = %+v", sum)
	}
}

// runReduce executes a reduction over a fresh chan fabric with one
// goroutine per member and returns the lead's buffer and the fabric stats.
func runReduce(t *testing.T, op agg.Op, algo ReduceAlgorithm, inputs [][]float64) ([]float64, Stats) {
	t.Helper()
	g := len(inputs)
	f, err := NewChanFabric(g)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	group := make([]int, g)
	for i := range group {
		group[i] = i
	}
	var wg sync.WaitGroup
	errs := make([]error, g)
	bufs := make([][]float64, g)
	for i := 0; i < g; i++ {
		ep, err := f.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = append([]float64(nil), inputs[i]...)
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			errs[i] = Reduce(EndpointPeer{Ep: ep}, group, i, bufs[i], op, 42, algo)
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return bufs[0], f.Stats()
}

func TestReduceBinomialSum(t *testing.T) {
	inputs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	got, stats := runReduce(t, agg.Sum, Binomial, inputs)
	if got[0] != 16 || got[1] != 20 {
		t.Fatalf("reduced = %v", got)
	}
	// Volume: (g-1) * len = 3 * 2 elements.
	if stats.Elements != 6 {
		t.Fatalf("elements = %d", stats.Elements)
	}
	if stats.Messages != 3 {
		t.Fatalf("messages = %d", stats.Messages)
	}
}

func TestReduceFlatMatchesBinomial(t *testing.T) {
	inputs := [][]float64{{1, 9}, {2, 8}, {3, 7}, {4, 6}, {5, 5}, {6, 4}, {7, 3}, {8, 2}}
	for _, op := range []agg.Op{agg.Sum, agg.Max, agg.Min} {
		bin, bstats := runReduce(t, op, Binomial, inputs)
		flat, fstats := runReduce(t, op, FlatGather, inputs)
		for i := range bin {
			if bin[i] != flat[i] {
				t.Fatalf("%v: binomial %v != flat %v", op, bin, flat)
			}
		}
		if bstats.Elements != fstats.Elements {
			t.Fatalf("%v: volumes differ: %d vs %d", op, bstats.Elements, fstats.Elements)
		}
	}
}

func TestReduceSingleMember(t *testing.T) {
	got, stats := runReduce(t, agg.Sum, Binomial, [][]float64{{5}})
	if got[0] != 5 || stats.Messages != 0 {
		t.Fatalf("singleton reduce: %v, %+v", got, stats)
	}
}

func TestReduceValidation(t *testing.T) {
	f, _ := NewChanFabric(2)
	defer f.Close()
	ep, _ := f.Endpoint(0)
	p := EndpointPeer{Ep: ep}
	if err := Reduce(p, nil, 0, nil, agg.Sum, 1, Binomial); err == nil {
		t.Fatal("empty group accepted")
	}
	if err := Reduce(p, []int{0, 1}, 5, nil, agg.Sum, 1, Binomial); err == nil {
		t.Fatal("bad member index accepted")
	}
	if err := Reduce(p, []int{0, 1, 2}, 0, nil, agg.Sum, 1, Binomial); err == nil {
		t.Fatal("non-power-of-two binomial group accepted")
	}
	if err := Reduce(p, []int{0, 1}, 0, nil, agg.Sum, 1, ReduceAlgorithm(9)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestReduceAlgorithmString(t *testing.T) {
	if Binomial.String() != "binomial" || FlatGather.String() != "flat" {
		t.Fatal("algorithm names wrong")
	}
	if ReduceAlgorithm(9).String() == "" {
		t.Fatal("unknown algorithm name empty")
	}
}

// Property: binomial reduction over random group sizes (powers of two) and
// values equals the direct fold.
func TestQuickReduce(t *testing.T) {
	f := func(seedVals [8]uint8, sizeSel uint8) bool {
		g := 1 << (int(sizeSel) % 4) // 1, 2, 4, 8
		inputs := make([][]float64, g)
		want := 0.0
		for i := 0; i < g; i++ {
			v := float64(seedVals[i])
			inputs[i] = []float64{v}
			want += v
		}
		res := make(chan []float64, 1)
		func() {
			fab, _ := NewChanFabric(g)
			defer fab.Close()
			group := make([]int, g)
			for i := range group {
				group[i] = i
			}
			var wg sync.WaitGroup
			bufs := make([][]float64, g)
			for i := 0; i < g; i++ {
				ep, _ := fab.Endpoint(i)
				bufs[i] = append([]float64(nil), inputs[i]...)
				wg.Add(1)
				go func(i int, ep Endpoint) {
					defer wg.Done()
					_ = Reduce(EndpointPeer{Ep: ep}, group, i, bufs[i], agg.Sum, 1, Binomial)
				}(i, ep)
			}
			wg.Wait()
			res <- bufs[0]
		}()
		return (<-res)[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	msg := Message{Src: 3, Dst: 1, Tag: 0xdeadbeef, Time: 2.5, Data: []float64{1, -2, math.Pi}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != 3 || got.Dst != 1 || got.Tag != 0xdeadbeef || got.Time != 2.5 {
		t.Fatalf("header = %+v", got)
	}
	for i := range msg.Data {
		if got.Data[i] != msg.Data[i] {
			t.Fatalf("payload = %v", got.Data)
		}
	}
}

// TestFloat64sRoundTrip crosses the codec's staging chunk both ways and
// keeps every value's bits, the non-finite ones and -0 included; a short
// stream is an error.
func TestFloat64sRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, floatChunk - 1, floatChunk, 2*floatChunk + 3} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), math.NaN(), float64(i) / 3}[i%5]
		}
		var buf bytes.Buffer
		if err := WriteFloat64s(&buf, vals); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 8*n {
			t.Fatalf("%d values encoded to %d bytes", n, buf.Len())
		}
		got := make([]float64, n)
		if err := ReadFloat64s(bytes.NewReader(buf.Bytes()), got); err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d of %d = %v, want %v", i, n, got[i], vals[i])
			}
		}
		if n > 0 {
			if err := ReadFloat64s(bytes.NewReader(buf.Bytes()[:8*n-1]), got); err == nil {
				t.Fatalf("short stream of %d values accepted", n)
			}
		}
	}
}

func TestFrameRejectsHugePayload(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Data: nil}
	if err := writeFrame(&buf, &msg); err != nil {
		t.Fatal(err)
	}
	// Corrupt the length field to a huge value.
	b := buf.Bytes()
	b[24], b[25], b[26], b[27] = 0xff, 0xff, 0xff, 0xff
	if _, err := readFrame(bytes.NewReader(b)); err == nil {
		t.Fatal("huge frame accepted")
	}
}

func TestTCPFabricSendRecv(t *testing.T) {
	f, err := NewTCPFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e0, _ := f.Endpoint(0)
	e2, _ := f.Endpoint(2)
	if err := e0.Send(2, 5, 1.25, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	msg, err := e2.Recv(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Src != 0 || msg.Time != 1.25 || msg.Data[1] != 20 {
		t.Fatalf("tcp message = %+v", msg)
	}
	s := f.Stats()
	if s.Messages != 1 || s.Elements != 2 {
		t.Fatalf("tcp stats = %+v", s)
	}
}

func TestTCPFabricReduce(t *testing.T) {
	const g = 4
	f, err := NewTCPFabric(g)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	group := []int{0, 1, 2, 3}
	var wg sync.WaitGroup
	bufs := make([][]float64, g)
	for i := 0; i < g; i++ {
		ep, _ := f.Endpoint(i)
		bufs[i] = []float64{float64(i + 1)}
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			if err := Reduce(EndpointPeer{Ep: ep}, group, i, bufs[i], agg.Sum, 3, Binomial); err != nil {
				t.Errorf("member %d: %v", i, err)
			}
		}(i, ep)
	}
	wg.Wait()
	if bufs[0][0] != 10 {
		t.Fatalf("tcp reduce = %v", bufs[0])
	}
}

func TestTCPFabricValidationAndClose(t *testing.T) {
	if _, err := NewTCPFabric(0); err == nil {
		t.Fatal("size 0 accepted")
	}
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := f.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		_, err := e1.Recv(0, 1)
		done <- err
	}()
	f.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("recv after close: %v", err)
	}
	e0, _ := f.Endpoint(0)
	if err := e0.Send(1, 1, 0, nil); err == nil {
		t.Fatal("send after close accepted")
	}
}

func TestFaultyFabric(t *testing.T) {
	inner, err := NewChanFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	f := &FaultyFabric{Inner: inner, FailRank: 0, FailAfter: 1}
	defer f.Close()
	e0, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if e0.Rank() != 0 || e0.Size() != 2 {
		t.Fatal("wrapped endpoint identity wrong")
	}
	// First send on the failing rank succeeds, second fails.
	if err := e0.Send(1, 1, 0, []float64{1}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err := e0.Send(1, 2, 0, []float64{2}); err != ErrInjected {
		t.Fatalf("second send: %v", err)
	}
	// Non-failing rank is unaffected.
	if err := e1.Send(0, 3, 0, []float64{3}); err != nil {
		t.Fatalf("peer send: %v", err)
	}
	if _, err := e1.Recv(0, 1); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if f.Stats().Messages != 2 {
		t.Fatalf("stats = %+v", f.Stats())
	}
	if _, err := f.Endpoint(9); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestTCPEndpointIdentityAndSelfSend(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e1, _ := f.Endpoint(1)
	if e1.Rank() != 1 || e1.Size() != 2 {
		t.Fatal("identity wrong")
	}
	if err := e1.Send(1, 1, 0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := e1.Send(9, 1, 0, nil); err == nil {
		t.Fatal("bad rank accepted")
	}
	if _, err := f.Endpoint(9); err == nil {
		t.Fatal("bad endpoint rank accepted")
	}
}

func TestTCPDialReuse(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e0, _ := f.Endpoint(0)
	e1, _ := f.Endpoint(1)
	// Two sends over the same cached connection.
	for i := Tag(0); i < 5; i++ {
		if err := e0.Send(1, i, 0, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := Tag(0); i < 5; i++ {
		msg, err := e1.Recv(0, i)
		if err != nil || msg.Data[0] != float64(i) {
			t.Fatalf("recv %d: %v %v", i, msg, err)
		}
	}
}

// runCollective drives one collective over a fresh fabric, one goroutine
// per member, returning all members' final buffers and the fabric stats.
func runCollective(t *testing.T, g int, fn func(p Peer, me int, buf []float64) error, init func(me int) []float64) ([][]float64, Stats) {
	t.Helper()
	f, err := NewChanFabric(g)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	bufs := make([][]float64, g)
	errs := make([]error, g)
	for m := 0; m < g; m++ {
		ep, _ := f.Endpoint(m)
		bufs[m] = init(m)
		wg.Add(1)
		go func(m int, ep Endpoint) {
			defer wg.Done()
			errs[m] = fn(EndpointPeer{Ep: ep}, m, bufs[m])
		}(m, ep)
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", m, err)
		}
	}
	return bufs, f.Stats()
}

func TestBroadcast(t *testing.T) {
	for _, g := range []int{1, 2, 4, 8, 16} {
		group := make([]int, g)
		for i := range group {
			group[i] = i
		}
		bufs, stats := runCollective(t, g, func(p Peer, me int, buf []float64) error {
			return Broadcast(p, group, me, buf, 9)
		}, func(me int) []float64 {
			if me == 0 {
				return []float64{3.5, -2}
			}
			return make([]float64, 2)
		})
		for m, buf := range bufs {
			if buf[0] != 3.5 || buf[1] != -2 {
				t.Fatalf("g=%d member %d = %v", g, m, buf)
			}
		}
		if want := int64(2 * (g - 1)); stats.Elements != want {
			t.Fatalf("g=%d broadcast volume %d, want %d", g, stats.Elements, want)
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	f, _ := NewChanFabric(2)
	defer f.Close()
	ep, _ := f.Endpoint(0)
	p := EndpointPeer{Ep: ep}
	if err := Broadcast(p, nil, 0, nil, 1); err == nil {
		t.Fatal("empty group accepted")
	}
	if err := Broadcast(p, []int{0, 1}, 5, nil, 1); err == nil {
		t.Fatal("bad index accepted")
	}
	if err := Broadcast(p, []int{0, 1, 2}, 0, nil, 1); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestAllReduce(t *testing.T) {
	const g = 8
	group := make([]int, g)
	for i := range group {
		group[i] = i
	}
	bufs, stats := runCollective(t, g, func(p Peer, me int, buf []float64) error {
		return AllReduce(p, group, me, buf, agg.Sum, 7, Binomial)
	}, func(me int) []float64 {
		return []float64{float64(me + 1), 1}
	})
	for m, buf := range bufs {
		if buf[0] != 36 || buf[1] != 8 {
			t.Fatalf("member %d = %v", m, buf)
		}
	}
	// Volume: 2 x (g-1) x len.
	if want := int64(2 * (g - 1) * 2); stats.Elements != want {
		t.Fatalf("allreduce volume %d, want %d", stats.Elements, want)
	}
}

func TestAllReduceMax(t *testing.T) {
	const g = 4
	group := []int{0, 1, 2, 3}
	bufs, _ := runCollective(t, g, func(p Peer, me int, buf []float64) error {
		return AllReduce(p, group, me, buf, agg.Max, 11, Binomial)
	}, func(me int) []float64 {
		return []float64{float64(-me)}
	})
	for m, buf := range bufs {
		if buf[0] != 0 {
			t.Fatalf("member %d = %v", m, buf)
		}
	}
}

// TestSendDoesNotRetainData: on every fabric, a sender that overwrites
// its buffer as soon as Send returns does not change what the receiver
// gets — the contract Endpoint.Send states.
func TestSendDoesNotRetainData(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (Fabric, error)
	}{
		{"chan", func() (Fabric, error) { return NewChanFabric(2) }},
		{"tcp", func() (Fabric, error) { return NewTCPFabric(2) }},
		{"faulty", func() (Fabric, error) {
			inner, err := NewChanFabric(2)
			return &FaultyFabric{Inner: inner, FailRank: 1, FailAfter: 0}, err
		}},
	} {
		f, err := tc.make()
		if err != nil {
			t.Fatal(err)
		}
		e0, err := f.Endpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		e1, err := f.Endpoint(1)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, 1000)
		for i := range buf {
			buf[i] = float64(i) + 0.5
		}
		for tag := Tag(1); tag <= 3; tag++ {
			if err := e0.Send(1, tag, 0, buf); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i := range buf {
				buf[i] = -buf[i]
			}
		}
		for tag := Tag(1); tag <= 3; tag++ {
			msg, err := e1.Recv(0, tag)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			sign := 1.0
			if tag == 2 {
				sign = -1
			}
			for i, v := range msg.Data {
				if v != sign*(float64(i)+0.5) {
					t.Fatalf("%s tag %d: element %d = %v, sent %v", tc.name, tag, i, v, sign*(float64(i)+0.5))
				}
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
