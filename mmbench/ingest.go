package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/crawler"
	"mmlab/internal/pipeline"
	"mmlab/internal/sib"
	"mmlab/internal/sim"
)

// The ingest workload: two fleet captures (carriers A and T) streamed
// into a pipeline.Daemon over loopback TCP, one connection per capture,
// each record timed from when it was due to the durable ack covering it.
const (
	// ingestScale sizes the crawled fleets: captures of about 6k records
	// for A and 4.4k for T.
	ingestScale = 0.05
	// ingestCheckpointEvery is the daemon's periodic checkpoint interval;
	// durable acks follow each checkpoint.
	ingestCheckpointEvery = 50 * time.Millisecond
	// ingestFixedRate is the nominal aggregate rate (records/s) at which
	// record→durable latency is reported; it sits well below the rate
	// the daemon sustains on a 2-CPU host.
	ingestFixedRate = 10000
	// ingestFixedPasses is how many canonical passes run at the fixed
	// rate; latency percentiles are over all of their records.
	ingestFixedPasses = 8
	// ingestClosedPasses is the least number of closed-loop passes.
	ingestClosedPasses = 24
	// ingestCheckpointCalls is how many CheckpointNow calls the traced
	// run times.
	ingestCheckpointCalls = 20
	// ingestAckWait bounds the wait for a stream's final durable ack.
	ingestAckWait = 30 * time.Second
	// ingestPassRecords is the size of the canonical pass the fixed-rate
	// and closed-loop passes send.
	ingestPassRecords = 10000
)

// capture is one carrier's crawled diag stream cut into records.
type capture struct {
	carrier, stream string
	recs            [][]byte // wire segments (diag header + envelope)
}

// ingestInputs crawls one capture per carrier and cuts it into records.
// The crawl seed derives from the workload seed and the carrier.
func ingestInputs(ctx context.Context, b *bench) ([]*capture, error) {
	var caps []*capture
	for _, acr := range []string{"A", "T"} {
		f, err := carrier.BuildFleet(acr, ingestScale)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		sp := b.tr.begin("crawler.CrawlFleet", nil)
		visits, err := crawler.CrawlFleet(ctx, f, &buf, sim.DeriveSeedLabel(b.seed, acr), b.workers)
		sp.attr("bytes", float64(buf.Len()))
		sp.attr("visits", float64(visits))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("crawling %s: %w", acr, err)
		}
		c := &capture{carrier: acr, stream: "dev-" + acr}
		if c.recs, err = splitCapture(buf.Bytes(), b.tr); err != nil {
			return nil, fmt.Errorf("capture %s: %w", acr, err)
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// splitCapture cuts a clean capture into per-record wire segments with
// sib.StreamScanner; any resync or trailing byte is an error.
func splitCapture(data []byte, tr *tracer) ([][]byte, error) {
	const headerLen = 13 // timestamp(8) + direction(1) + length(4)
	sp := tr.begin("sib.StreamScanner", nil)
	sc := sib.NewStreamScanner(bytes.NewReader(data), sib.ScanOptions{})
	var recs [][]byte
	off := 0
	for {
		rec, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n := headerLen + len(rec.Raw)
		recs = append(recs, data[off:off+n])
		off += n
	}
	sp.attr("bytes", float64(len(data)))
	sp.attr("records", float64(len(recs)))
	sp.end()
	if st := sc.Stats(); st.Resyncs != 0 || off != len(data) {
		return nil, fmt.Errorf("capture does not scan cleanly: %d resyncs, %d of %d bytes", st.Resyncs, off, len(data))
	}
	return recs, nil
}

// pass is one set of streams to send, with the checkpoint a daemon
// drained after ingesting them must write, byte for byte:
// pipeline.Reference over the same bytes.
type pass struct {
	streams []stream
	ref     []byte
}

// ingestShares splits a pass's records over the captures (A, T), fixed
// so that every seed's passes carry the same number of records.
var ingestShares = []float64{0.6, 0.4}

// makePass builds a pass of total records: each stream takes its share,
// cycling through its capture as often as needed (the daemon's state,
// and with it every checkpoint, grows with the records offered).
func makePass(caps []*capture, total int, tr *tracer) (pass, error) {
	var p pass
	ins := make([]pipeline.FeedInput, len(caps))
	for i, c := range caps {
		recs := make([][]byte, int(float64(total)*ingestShares[i]))
		var data []byte
		for j := range recs {
			recs[j] = c.recs[j%len(c.recs)]
			data = append(data, recs[j]...)
		}
		p.streams = append(p.streams, stream{carrier: c.carrier, name: c.stream, recs: recs})
		ins[i] = pipeline.FeedInput{Carrier: c.carrier, Stream: c.stream, Data: data}
	}
	sp := tr.begin("pipeline.Reference", nil)
	sp.attr("records", float64(total))
	cp, err := pipeline.Reference(ins)
	sp.end()
	if err != nil {
		return p, err
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return p, err
	}
	p.ref = buf.Bytes()
	return p, nil
}

// daemon is one live pipeline.Daemon with its TCP address.
type daemon struct {
	d    *pipeline.Daemon
	addr string
	dir  string
}

func startDaemon(dir string, every time.Duration) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d := pipeline.NewDaemon(pipeline.Config{CheckpointDir: dir, CheckpointEvery: every})
	addr, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		if _, serr := d.Shutdown(context.Background()); serr != nil {
			return nil, fmt.Errorf("%v (and shutdown: %v)", err, serr)
		}
		return nil, err
	}
	return &daemon{d: d, addr: addr, dir: dir}, nil
}

// stream is what one connection sends: a carrier/stream identity and
// the records in order.
type stream struct {
	carrier, name string
	recs          [][]byte
}

// stepResult is one pass of the streams through a fresh daemon.
type stepResult struct {
	records  int
	latency  []float64     // ms, due → durable ack, per record
	lateness []float64     // ms, due → written, per record
	lastAck  time.Duration // first due → last final durable ack
	drain    time.Duration // Shutdown call → checkpoint on disk
	failed   int           // records not durably acked or not verified
	queues   queueMax
}

// queueMax is the deepest the daemon's queues and durable lag got.
type queueMax struct {
	shard, aggregate, durableLag int
}

// ingestStep sends a pass into a fresh daemon at the offered aggregate
// rate (records/s; 0 sends as fast as the connections take them), waits
// for the final durable ack of every stream and for every stream to show
// Complete, drains the daemon, and compares the drained checkpoint with
// the pass's reference.
func ingestStep(b *bench, p pass, rate float64, name string) (stepResult, error) {
	var res stepResult
	streams := p.streams
	// Start every pass with the previous one's garbage collected, so no
	// pass pays for another's; the heap stays mapped, as in a daemon
	// that has been running for a while.
	runtime.GC()
	dmn, err := startDaemon(filepath.Join(b.dir, "daemon"), ingestCheckpointEvery)
	if err != nil {
		return res, err
	}
	sp := b.tr.begin(name, nil)
	sp.attr("rate", rate)
	stopSampler := func() {}
	if b.tr != nil {
		stopSampler = sampleQueues(dmn.d, &res.queues)
	}

	for _, s := range streams {
		res.records += len(s.recs)
	}
	t0 := time.Now().Add(2 * time.Millisecond) // let every sender connect first
	outs := make([]senderOut, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		var every time.Duration
		if rate > 0 {
			// Each stream gets its share of the rate, so all finish together.
			every = time.Duration(float64(time.Second) * float64(res.records) / rate / float64(len(s.recs)))
		}
		wg.Add(1)
		go func(i int, s stream) {
			defer wg.Done()
			outs[i] = sendStream(dmn.addr, s, t0, every)
		}(i, s)
	}
	wg.Wait()

	for i, o := range outs {
		res.latency = append(res.latency, o.latency...)
		res.lateness = append(res.lateness, o.lateness...)
		res.lastAck = max(res.lastAck, o.lastAck)
		if o.err != nil {
			res.failed += len(streams[i].recs) - o.acked
			b.note("%s: stream %s: %v (%d of %d records durable)", name, streams[i].name, o.err, o.acked, len(streams[i].recs))
		}
	}
	if res.failed == 0 {
		if err := waitComplete(dmn.d, len(streams)); err != nil {
			res.failed = res.records
			b.note("%s: %v", name, err)
		}
	}
	stopSampler()
	sp.attr("shard_max", float64(res.queues.shard))
	sp.attr("aggregate_max", float64(res.queues.aggregate))
	sp.attr("durable_lag_max", float64(res.queues.durableLag))
	ctx, cancel := context.WithTimeout(context.Background(), ingestAckWait)
	defer cancel()
	ds := b.tr.begin("pipeline.Daemon.Shutdown", sp)
	start := time.Now()
	_, err = dmn.d.Shutdown(ctx)
	res.drain = time.Since(start)
	ds.end()
	sp.attr("drain_s", res.drain.Seconds())
	sp.end()
	if err != nil {
		res.failed = res.records
		b.note("%s: drain: %v", name, err)
	}
	got, err := os.ReadFile(filepath.Join(dmn.dir, "checkpoint.json"))
	if err != nil {
		res.failed = res.records
		b.note("%s: drained checkpoint: %v", name, err)
	} else if !bytes.Equal(got, p.ref) {
		res.failed = res.records
		b.note("%s: drained checkpoint (%d bytes) differs from pipeline.Reference (%d bytes)", name, len(got), len(p.ref))
	}
	res.failed = min(res.failed, res.records)
	b.attempted += res.records
	b.failed += res.failed
	return res, nil
}

// senderOut is one stream sender's outcome.
type senderOut struct {
	latency, lateness []float64
	lastAck           time.Duration
	acked             int
	err               error
}

// sendStream is the open-loop sender for one stream: record i is due at
// t0 + i×every and is written as soon as it is due, batched with any
// other due records into data frames; a paced sender never waits on the
// daemon. Its ack reader times each record from due to the durable ack
// that covers it. It returns after the final durable ack (or a failure)
// and closes its connection.
func sendStream(addr string, s stream, t0 time.Time, every time.Duration) senderOut {
	var out senderOut
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		out.err = err
		return out
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := pipeline.WriteHello(bw, pipeline.Hello{Carrier: s.carrier, Stream: s.name}); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		out.err = err
		return out
	}
	// The first ack is the resume point: a fresh daemon owns nothing yet.
	if resume, err := pipeline.ReadAck(br); err != nil || resume != 0 {
		out.err = fmt.Errorf("resume ack %d: %v", resume, err)
		return out
	}

	n := len(s.recs)
	due := func(i int) time.Duration { return time.Duration(i) * every }
	out.latency = make([]float64, n)
	out.lateness = make([]float64, n)
	var acked atomic.Int64
	ackDone := make(chan error, 1)
	go func() {
		for {
			k, err := pipeline.ReadAck(br)
			if err != nil {
				ackDone <- err
				return
			}
			at := time.Since(t0)
			prev := int(acked.Load())
			if int(k) > n || int(k) < prev {
				ackDone <- fmt.Errorf("durable ack %d out of order (had %d of %d)", k, prev, n)
				return
			}
			for i := prev; i < int(k); i++ {
				out.latency[i] = millis(at - due(i))
			}
			acked.Store(int64(k))
			if int(k) == n {
				out.lastAck = at
				ackDone <- nil
				return
			}
		}
	}()

	const maxFrame = 64 << 10
	payload := make([]byte, 0, maxFrame)
	for i := 0; i < n && err == nil; {
		if wait := due(i) - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Since(t0)
		j := i
		for j < n && due(j) <= now && err == nil {
			if len(payload)+len(s.recs[j]) > maxFrame {
				err = pipeline.WriteFrame(bw, payload)
				payload = payload[:0]
			}
			payload = append(payload, s.recs[j]...)
			j++
		}
		if err == nil && len(payload) > 0 {
			err = pipeline.WriteFrame(bw, payload)
			payload = payload[:0]
		}
		if err == nil {
			err = bw.Flush()
		}
		written := time.Since(t0)
		for k := i; k < j; k++ {
			out.lateness[k] = millis(written - due(k))
		}
		i = j
	}
	if err == nil {
		if err = pipeline.WriteEnd(bw); err == nil {
			err = bw.Flush()
		}
	}
	readerDone := false
	if err == nil {
		select {
		case err = <-ackDone:
			readerDone = true
			if err == io.EOF {
				err = errors.New("daemon closed the connection before the final durable ack")
			}
		case <-time.After(ingestAckWait):
			err = errors.New("no final durable ack")
		}
	}
	if !readerDone {
		conn.Close() // releases the ack reader
		<-ackDone
	}
	out.acked = int(acked.Load())
	out.err = err
	return out
}

// waitComplete polls the daemon's status until all want streams show
// Complete — the drained checkpoint then covers every record.
func waitComplete(d *pipeline.Daemon, want int) error {
	deadline := time.Now().Add(ingestAckWait)
	for time.Now().Before(deadline) {
		done := 0
		for _, s := range d.Status().Streams {
			if s.Complete {
				done++
			}
		}
		if done == want {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("streams not complete after their final durable ack")
}

// sampleQueues polls Daemon.Status every 2 ms into m until the returned
// stop function is called; stop waits for the sampler to exit.
func sampleQueues(d *pipeline.Daemon, m *queueMax) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			st := d.Status()
			for _, q := range st.Queues.Shards {
				m.shard = max(m.shard, q)
			}
			m.aggregate = max(m.aggregate, st.Queues.Aggregate)
			lag := 0
			for _, s := range st.Streams {
				lag += int(s.IntakeSeq - s.DurableSeq)
			}
			m.durableLag = max(m.durableLag, lag)
		}
	}()
	return func() { close(stop); <-done }
}

// ingestSetupReps is how many times a run sets up, for a median setup_s.
const ingestSetupReps = 3

// ingestSetup crawls the captures and starts a daemon ingestSetupReps
// times and returns the last captures with the median set-up time. Only
// the last daemon's successor is used: each measured pass starts its own.
func ingestSetup(b *bench) ([]*capture, float64, error) {
	var caps []*capture
	var times []float64
	for k := 0; k < ingestSetupReps; k++ {
		start := time.Now()
		c, err := ingestInputs(context.Background(), b)
		if err != nil {
			return nil, 0, err
		}
		dmn, err := startDaemon(filepath.Join(b.dir, "daemon"), ingestCheckpointEvery)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if _, err := dmn.d.Shutdown(context.Background()); err != nil {
			return nil, 0, err
		}
		caps = c
	}
	return caps, median(times), nil
}

// checkPin compares the canonical pass's reference checkpoint with the
// seed's pin: the batch crawler and parser must not drift either.
func checkPin(b *bench, p pass) {
	if want, ok := ingestPins[b.seed]; ok {
		got := digest(p.ref)
		b.check(got == want, "reference checkpoint digest %s, pinned %s", got, want)
	}
}

// fixedRatePasses sends the canonical pass ingestFixedPasses times at
// ingestFixedRate.
func fixedRatePasses(b *bench, p pass) ([]stepResult, error) {
	var out []stepResult
	for k := 0; k < ingestFixedPasses; k++ {
		st, err := ingestStep(b, p, ingestFixedRate, "ingest.fixed")
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// closedLoopPasses sends the canonical pass as fast as the connections
// take it, at least ingestClosedPasses times and until the run's
// measuring time since start is spent, and returns each pass's time from
// the first record to its final durable ack. The daemon's intake stages
// take the whole pass in under 20 ms on a 2-CPU host, well inside the
// first 50 ms checkpoint interval, so that time is one interval plus one
// checkpoint of the pass's full state.
func closedLoopPasses(b *bench, p pass, start time.Time) ([]float64, error) {
	var jobs []float64
	for len(jobs) < ingestClosedPasses || time.Since(start) < b.seconds {
		st, err := ingestStep(b, p, 0, "ingest.closed")
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, st.lastAck.Seconds())
	}
	return jobs, nil
}

// pooled is the fixed-rate passes' latencies, pooled.
func pooled(fixed []stepResult) []float64 {
	var latency []float64
	for _, st := range fixed {
		latency = append(latency, st.latency...)
	}
	return latency
}

func runIngest(b *bench) error {
	caps, setup, err := ingestSetup(b)
	if err != nil {
		return err
	}
	b.set("setup_s", "s", setup)
	canon, err := makePass(caps, ingestPassRecords, nil)
	if err != nil {
		return err
	}
	checkPin(b, canon)

	start := time.Now()
	fixed, err := fixedRatePasses(b, canon)
	if err != nil {
		return err
	}
	lat := pooled(fixed)
	b.set("op_p50_ms", "ms", median(lat))
	b.set("op_tail_ms", "ms", quantile(lat, 0.99))
	jobs, err := closedLoopPasses(b, canon, start)
	if err != nil {
		return err
	}
	b.set("job_s", "s", median(jobs))
	b.set("rate_per_s", "1/s", float64(ingestPassRecords)/median(jobs))
	return nil
}

func traceIngest(b *bench) error {
	prof, err := startProfile(b.dir)
	if err != nil {
		return err
	}
	caps, err := ingestInputs(context.Background(), b)
	if err != nil {
		return err
	}
	if err := replayFleetConfig(b); err != nil {
		return err
	}
	canon, err := makePass(caps, ingestPassRecords, b.tr)
	if err != nil {
		return err
	}
	checkPin(b, canon)
	replayParser(b, canon)
	if err := timeCheckpoints(b, canon); err != nil {
		return err
	}

	start := time.Now()
	fixed, err := fixedRatePasses(b, canon)
	if err != nil {
		return err
	}
	traced, err := closedLoopPasses(b, canon, start)
	if err != nil {
		return err
	}
	if err := prof.stop(); err != nil {
		return err
	}
	tr := b.tr
	b.tr = nil
	plain, err := closedLoopPasses(b, canon, time.Now())
	b.tr = tr
	if err != nil {
		return err
	}

	crawlS := b.tr.total("crawler.CrawlFleet")
	scanS := b.tr.total("sib.StreamScanner")
	ckpt := b.tr.durations("pipeline.CheckpointNow")
	maxOf := func(key string) float64 {
		m := 0.0
		for _, name := range []string{"ingest.fixed", "ingest.closed"} {
			for _, v := range b.tr.attrs(name, key) {
				m = max(m, v)
			}
		}
		return m
	}
	var late []float64
	for _, st := range fixed {
		late = append(late, st.lateness...)
	}
	b.set("crawler.CrawlFleet.s", "s", crawlS.Seconds())
	b.set("crawler.CrawlFleet.bytes", "bytes", sum(b.tr.attrs("crawler.CrawlFleet", "bytes")))
	b.set("sib.StreamScanner.mb_per_s", "MB/s", sum(b.tr.attrs("sib.StreamScanner", "bytes"))/1e6/scanS.Seconds())
	b.set("pipeline.Reference.s", "s", b.tr.durations("pipeline.Reference")[0]/1e9)
	b.set("pipeline.CheckpointNow.p50_ms", "ms", median(ckpt)/1e6)
	b.set("pipeline.CheckpointNow.p99_ms", "ms", quantile(ckpt, 0.99)/1e6)
	b.set("pipeline.queue.shard_max", "count", maxOf("shard_max"))
	b.set("pipeline.queue.aggregate_max", "count", maxOf("aggregate_max"))
	b.set("pipeline.durable_lag_records_max", "count", maxOf("durable_lag_max"))
	b.set("pipeline.Shutdown.drain_s", "s", median(append(b.tr.attrs("ingest.fixed", "drain_s"), b.tr.attrs("ingest.closed", "drain_s")...)))
	b.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	b.set("trace.overhead_pct", "%", 100*(median(traced)-median(plain))/median(plain))
	return nil
}

// timeCheckpoints times pipeline.Daemon.CheckpointNow at the full state
// of the canonical pass: a daemon whose own checkpoint ticker stays idle
// (CheckpointNow must not race it) ingests the pass, and the benchmark
// then checkpoints it ingestCheckpointCalls times; the first call's
// durable acks release the senders.
func timeCheckpoints(b *bench, p pass) error {
	dmn, err := startDaemon(filepath.Join(b.dir, "daemon"), time.Hour)
	if err != nil {
		return err
	}
	t0 := time.Now()
	outs := make([]senderOut, len(p.streams))
	var wg sync.WaitGroup
	for i, s := range p.streams {
		wg.Add(1)
		go func(i int, s stream) {
			defer wg.Done()
			outs[i] = sendStream(dmn.addr, s, t0, 0)
		}(i, s)
	}
	complete := waitComplete(dmn.d, len(p.streams))
	for k := 0; k < ingestCheckpointCalls; k++ {
		sp := b.tr.begin("pipeline.CheckpointNow", nil)
		err := dmn.d.CheckpointNow()
		sp.end()
		if err != nil {
			complete = errors.Join(complete, err)
			break
		}
	}
	wg.Wait()
	if fi, err := os.Stat(filepath.Join(dmn.dir, "checkpoint.json")); err == nil {
		b.set("pipeline.checkpoint_bytes", "bytes", float64(fi.Size()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), ingestAckWait)
	defer cancel()
	_, err = dmn.d.Shutdown(ctx)
	got, rerr := os.ReadFile(filepath.Join(dmn.dir, "checkpoint.json"))
	b.check(complete == nil && err == nil && rerr == nil && bytes.Equal(got, p.ref),
		"checkpoint-timing pass: complete %v, drain %v, read %v, matches reference %v", complete, err, rerr, bytes.Equal(got, p.ref))
	for i, o := range outs {
		b.check(o.err == nil, "checkpoint-timing pass: stream %s: %v", p.streams[i].name, o.err)
	}
	return nil
}

// replayFleetConfig regenerates the configuration of every crawled
// fleet site on a fresh generator, timing carrier.Generator.Config.
func replayFleetConfig(b *bench) error {
	var sets []configSet
	for _, acr := range []string{"A", "T"} {
		f, err := carrier.BuildFleet(acr, ingestScale)
		if err != nil {
			return err
		}
		sets = append(sets, configSet{acronym: acr, sites: f.Sites})
	}
	return replayConfig(b, sets)
}

// replayParser feeds every record of the canonical pass through a fresh
// crawler.StreamParser per stream and checks it extracts them all.
func replayParser(b *bench, p pass) {
	sp := b.tr.begin("crawler.StreamParser", nil)
	start := time.Now()
	records := 0
	for _, s := range p.streams {
		parser := crawler.NewStreamParser()
		for _, seg := range s.recs {
			// The segments are whole records: timestamp(8), direction(1),
			// length(4), envelope.
			parser.Feed(sib.DiagRecord{
				TimestampMs: binary.LittleEndian.Uint64(seg),
				Dir:         sib.Direction(seg[8]),
				Raw:         seg[13:],
			})
		}
		parser.Close()
		st := parser.Stats()
		records += st.Records
		b.check(st.Records == len(s.recs) && st.Bad == 0, "StreamParser over %s: %d of %d records, %d bad", s.name, st.Records, len(s.recs), st.Bad)
	}
	elapsed := time.Since(start)
	sp.attr("records", float64(records))
	sp.end()
	b.set("crawler.StreamParser.records_per_s", "1/s", float64(records)/elapsed.Seconds())
}
