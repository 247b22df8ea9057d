package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the timing of one request of the stream, in nanoseconds
// since the load generator started. Kept small: a run holds one per
// request, and its own memory must not swamp the server's.
type sample struct {
	due, sent, done time.Duration
}

// latency is the time from when the request was due to its answer.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how long after its due time the request was sent.
func (s sample) late() time.Duration { return s.sent - s.due }

// loadgen drives one server from this process over at most conns
// keep-alive connections. It keeps the first body of every distinct
// query, for the answer checks, and compares each repeat with it.
type loadgen struct {
	client *http.Client
	base   string
	stream Stream
	conns  int
	tracer *Tracer
	t0     time.Time

	mu       sync.Mutex
	bodies   map[Query][]byte
	count    map[Query]int
	failures []string
	failed   atomic.Int64
}

func newLoadgen(base string, stream Stream, conns int, tr *Tracer) *loadgen {
	transport := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		client: &http.Client{Transport: transport, Timeout: 30 * time.Second},
		base:   base, stream: stream, conns: conns, tracer: tr, t0: time.Now(),
		bodies: make(map[Query][]byte), count: make(map[Query]int),
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// fail records a failed request.
func (lg *loadgen) fail(format string, args ...any) {
	lg.failed.Add(1)
	lg.mu.Lock()
	if len(lg.failures) < 20 {
		lg.failures = append(lg.failures, fmt.Sprintf(format, args...))
	}
	lg.mu.Unlock()
}

// do sends q, due at due. Traced, each request is its own trace: a
// loadgen.request span from due to done and its serve.http child from
// send to done.
func (lg *loadgen) do(q Query, due time.Time, phase uint64) sample {
	sent := time.Now()
	body, err := get(lg.client, lg.base+q.URL())
	done := time.Now()
	if tr := lg.tracer; tr != nil && tr.on.Load() {
		trace, req := tr.NewID(), tr.NewID()
		tr.Record("loadgen.request", trace, req, phase, due, done)
		tr.Record("serve.http", trace, tr.NewID(), req, sent, done)
	}
	if err != nil {
		lg.fail("%s: %v", q.URL(), err)
	} else {
		lg.mu.Lock()
		first, seen := lg.bodies[q]
		if !seen {
			lg.bodies[q] = body
		}
		lg.count[q]++
		lg.mu.Unlock()
		if seen && !bytes.Equal(first, body) {
			lg.fail("%s answered differently than before", q.URL())
		}
	}
	return sample{due: due.Sub(lg.t0), sent: sent.Sub(lg.t0), done: done.Sub(lg.t0)}
}

// get fetches one URL, reading the whole body; any status but 200 is
// an error.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// closed sends queries at(0), at(1), ... back to back from conns
// clients until count are sent or until passes, and returns how many
// it sent: always the first ones, since an index is taken only before
// the deadline and every index taken is sent.
func (lg *loadgen) closed(name string, count int, until time.Time, at func(k int) Query) int {
	phase := lg.tracer.Begin(name, lg.tracer.NewID(), 0)
	defer phase.End()
	var next, sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for until.IsZero() || time.Now().Before(until) {
				k := int(next.Add(1)) - 1
				if k >= count {
					return
				}
				lg.do(at(k), time.Now(), phase.ID())
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(sent.Load())
}

// open offers count queries starting at from at a fixed rate per
// second, whatever the server's progress: query k is due at start +
// k/rate and waits for a free connection if all are busy.
func (lg *loadgen) open(from, count int, rate float64) []sample {
	phase := lg.tracer.Begin("loadgen.open", lg.tracer.NewID(), 0)
	defer phase.End()
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job, count) // sized to the number of sends: the schedule never blocks
	out := make([]sample, count)
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.k] = lg.do(lg.stream.At(from+j.k), j.due, phase.ID())
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		jobs <- job{k, due}
	}
	close(jobs)
	wg.Wait()
	return out
}

// responseDigest folds the bodies of queries [0, upto) in stream order
// (FNV-1a 64). Repeats of a query are byte-equal to its first answer
// (a difference is a failure), so the kept bodies determine it.
func (lg *loadgen) responseDigest(upto int) string {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	h := fnv.New64a()
	for i := 0; i < upto; i++ {
		fmt.Fprintf(h, "%d:", i)
		h.Write(lg.bodies[lg.stream.At(i)])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// segment returns the query function of the stream from index from on.
func (lg *loadgen) segment(from int) func(k int) Query {
	return func(k int) Query { return lg.stream.At(from + k) }
}
