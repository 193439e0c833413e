package feeder_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/crawler"
	"mmlab/internal/pipeline"
	"mmlab/internal/pipeline/feeder"
	"mmlab/internal/sib"
)

// sink is a minimal ingest endpoint: it accepts the feeder's sequence of
// connections, validates each hello, opens each connection with the
// protocol's resume ack (the number of complete records it holds), and
// concatenates every delivered frame payload — the same byte stream a
// daemon's scanner would see.
type sink struct {
	ln      net.Listener
	payload bytes.Buffer
	hellos  []pipeline.Hello
	done    chan struct{}
}

// recordCount scans the bytes received so far and counts the complete
// records — the resume position a real daemon would ack.
func (s *sink) recordCount() uint64 {
	sc := sib.NewStreamScanner(bytes.NewReader(s.payload.Bytes()), sib.ScanOptions{})
	for {
		if _, ok, _ := sc.Next(); !ok {
			return uint64(sc.Stats().Records)
		}
	}
}

func startSink(t *testing.T) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			h, err := pipeline.ReadHello(br)
			if err != nil {
				conn.Close()
				continue
			}
			s.hellos = append(s.hellos, h)
			if err := pipeline.WriteAck(conn, s.recordCount()); err != nil {
				conn.Close()
				continue
			}
			fr := pipeline.NewFrameReader(br)
			io.Copy(&s.payload, fr)
			conn.Close()
			if fr.End() {
				return
			}
		}
	}()
	return s
}

func TestFeederLosslessUnderFaults(t *testing.T) {
	f, err := carrier.BuildFleet("A", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := crawler.CrawlFleet(context.Background(), f, &buf, 21, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var want []sib.DiagRecord
	if err := sib.ScanStrict(bytes.NewReader(data), func(rec sib.DiagRecord) error {
		rec.Raw = append([]byte(nil), rec.Raw...)
		want = append(want, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	s := startSink(t)
	defer s.ln.Close()
	st, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: s.ln.Addr().String(), Carrier: "A", Stream: "s0", Seed: 77,
		Faults: feeder.Faults{Disconnect: 0.08, Corrupt: 0.12, Garbage: 0.08, Stall: 0.02, StallMs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-s.done
	t.Logf("feeder stats: %+v", st)
	if st.Records != len(want) {
		t.Fatalf("fed %d records, capture has %d", st.Records, len(want))
	}
	if st.Corrupted == 0 || st.Disconnects == 0 || st.Garbage == 0 || st.Reconnects == 0 {
		t.Fatalf("fault schedule too sparse: %+v", st)
	}
	if len(s.hellos) < 2 {
		t.Fatalf("expected reconnect hellos, got %d", len(s.hellos))
	}
	for _, h := range s.hellos {
		if h.Carrier != "A" || h.Stream != "s0" {
			t.Fatalf("bad hello %+v", h)
		}
	}

	// The delivered byte stream is damaged on purpose; the
	// resynchronizing scanner must recover exactly the original record
	// sequence, once each, in order.
	sc := sib.NewStreamScanner(bytes.NewReader(s.payload.Bytes()), sib.ScanOptions{Copy: true})
	var got []sib.DiagRecord
	for {
		rec, ok, _ := sc.Next()
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if sc.Stats().Resyncs == 0 {
		t.Error("faulted delivery produced zero resyncs")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d records, want %d (or contents differ)", len(got), len(want))
	}
}

// TestFeederCleanIsPassthrough checks the zero-fault feeder delivers the
// capture bytes exactly, in one connection, ending cleanly.
func TestFeederCleanIsPassthrough(t *testing.T) {
	f, err := carrier.BuildFleet("A", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := crawler.CrawlFleet(context.Background(), f, &buf, 22, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	s := startSink(t)
	defer s.ln.Close()
	st, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: s.ln.Addr().String(), Carrier: "A", Stream: "s0", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-s.done
	if !bytes.Equal(s.payload.Bytes(), data) {
		t.Fatal("clean feed must deliver the capture byte-identically")
	}
	if len(s.hellos) != 1 || st.Reconnects != 0 || st.Disconnects != 0 {
		t.Fatalf("clean feed churned connections: hellos=%d stats=%+v", len(s.hellos), st)
	}
}
