package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"riscvmem/internal/machine"
	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
	"riscvmem/internal/service"
	"riscvmem/internal/units"
)

// ---- shared serving pieces --------------------------------------------------

// newService builds a Service with the option values cmd/simd's flag defaults
// produce, over the given store.
func newService(store memostore.Store) *service.Service {
	return service.New(service.Options{
		MaxInFlight:    4,
		MaxJobs:        4096,
		DefaultTimeout: 60 * time.Second,
		MaxTimeout:     5 * time.Minute,
		JobTTL:         5 * time.Minute,
		Store:          store,
		Logf:           logf,
	})
}

// httpServer is an http.Server on a loopback port the kernel picked, with
// cmd/simd's server timeouts.
type httpServer struct {
	srv  *http.Server
	addr string // host:port
	url  string
	done chan error
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		addr: ln.Addr().String(),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server at once. Teardown runs when no op is in flight, and
// a graceful Shutdown would wait five seconds on connections a client
// transport dialled ahead and never used.
func (s *httpServer) close() error {
	err := s.srv.Close()
	if serveErr := <-s.done; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	return err
}

// opClient is the single closed-loop client: one keep-alive connection, the
// next request written only when the previous reply has been read in full. It
// writes and reads on the calling goroutine (net/http's Transport would add
// two goroutines and two hand-offs per op, all of them client cost inside the
// measured latency and CPU time).
type opClient struct {
	addr string // host:port
	conn net.Conn
	rd   *bufio.Reader
	tr   *tracer

	reqBytes, respBytes, rejected uint64
}

// httpDeadline bounds every HTTP exchange the benchmark makes.
const httpDeadline = 30 * time.Second

func newOpClient(addr string, tr *tracer) *opClient { return &opClient{addr: addr, tr: tr} }

func (c *opClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// httpOut is one reply as the client saw it.
type httpOut struct {
	status int
	body   []byte
}

// exchange sends one request on the connection, dialling it first if need
// be, and reads the whole reply.
func (c *opClient) exchange(ctx context.Context, method, path string, body []byte) (httpOut, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://"+c.addr+path, bytes.NewReader(body))
	if err != nil {
		return httpOut{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tr != nil && c.tr.op.Load() >= 0 { // the cold fill is not an op
		req.Header.Set(opHeader, strconv.FormatInt(c.tr.op.Load(), 10))
	}
	if c.conn == nil {
		d := net.Dialer{Timeout: httpDeadline}
		if c.conn, err = d.DialContext(ctx, "tcp", c.addr); err != nil {
			return httpOut{}, err
		}
		c.rd = bufio.NewReader(c.conn)
	}
	out, err := c.roundTrip(req)
	if err != nil {
		c.close() // the connection's state is unknown
		return httpOut{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return out, nil
}

func (c *opClient) roundTrip(req *http.Request) (httpOut, error) {
	if err := c.conn.SetDeadline(time.Now().Add(httpDeadline)); err != nil {
		return httpOut{}, err
	}
	if err := req.Write(c.conn); err != nil {
		return httpOut{}, err
	}
	resp, err := http.ReadResponse(c.rd, req)
	if err != nil {
		return httpOut{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpOut{}, fmt.Errorf("reading the reply: %w", err)
	}
	if resp.Close {
		return httpOut{}, errors.New("the server closed the keep-alive connection")
	}
	return httpOut{resp.StatusCode, data}, nil
}

func (c *opClient) post(ctx context.Context, path string, body []byte) (httpOut, error) {
	out, err := c.exchange(ctx, http.MethodPost, path, body)
	if err != nil {
		return httpOut{}, err
	}
	c.reqBytes += uint64(len(body))
	c.respBytes += uint64(len(out.body))
	if out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable {
		c.rejected++
	}
	return out, nil
}

// scrape reads the named unlabelled series from the server's /metrics page.
func (c *opClient) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	page, err := c.exchange(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if page.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", page.status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(page.body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					return nil, fmt.Errorf("/metrics: %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	for _, want := range names {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("/metrics: no series %s", want)
		}
	}
	return out, nil
}

// replyRows decodes a batch or sweep reply into its rows; ok is false for a
// non-200 status, an undecodable body, or any row or request error.
func replyRows(out any) (rows []run.Result, ok bool) {
	o := out.(httpOut)
	if o.status != http.StatusOK {
		return nil, false
	}
	var resp service.Response
	if err := json.Unmarshal(o.body, &resp); err != nil || len(resp.Errors) > 0 {
		return nil, false
	}
	rows = make([]run.Result, len(resp.Results))
	for i, r := range resp.Results {
		if r.Error != "" {
			return nil, false
		}
		rows[i] = r.Result
	}
	return rows, true
}

func batchBody(devices []string, specs []string) []byte {
	data, err := json.Marshal(struct {
		Devices   []string `json:"devices"`
		Workloads []string `json:"workloads"`
	}{devices, specs})
	if err != nil {
		panic(err) // strings always marshal
	}
	return data
}

// cross lists a batch reply's cells in its row order: devices outermost.
func cross(devices, specs []string) []cell {
	out := make([]cell, 0, len(devices)*len(specs))
	for _, d := range devices {
		for _, s := range specs {
			out = append(out, cell{d, s})
		}
	}
	return out
}

// ---- serve_warm -------------------------------------------------------------

// request is one pre-built request body and the cells its reply rows must
// equal, in row order.
type request struct {
	raw   []byte
	cells []cell
}

// distinctCells returns the cells the requests expect, each once, in
// first-seen order.
func distinctCells(reqs []request) []cell {
	seen := map[cell]bool{}
	var out []cell
	for _, r := range reqs {
		for _, c := range r.cells {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// serveWarm posts warm batches to a standalone service over a real socket.
type serveWarm struct {
	presets
	reqs []request
	ops  int
}

// warmSpecPool is the 64 specs serve_warm's bodies are dealt from: small
// cells of every kernel family. They only ever simulate during the fill.
func warmSpecPool() []string {
	var pool []string
	for _, t := range []string{"COPY", "SCALE", "SUM", "TRIAD"} {
		for _, n := range []int{256, 512, 1024, 2048, 4096, 8192} {
			pool = append(pool, streamSpec(t, n, 1))
		}
	}
	for _, v := range []string{"Naive", "Parallel", "Blocking", "Manual_blocking", "Dynamic"} {
		for _, n := range []int{16, 32, 64} {
			pool = append(pool, transposeSpec(v, n))
		}
	}
	for _, v := range []string{"Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel"} {
		for _, wh := range [][2]int{{20, 20}, {24, 20}, {28, 22}, {32, 24}, {36, 26}} {
			pool = append(pool, blurSpec(v, wh[0], wh[1]))
		}
	}
	return pool
}

// newServeWarm deals the pool and the four devices into bodies of 2 devices ×
// 32 specs. One pass splits the shuffled pool into halves and the shuffled
// devices into pairs and posts every half to every pair: four bodies that
// hold each (device, spec) cell exactly once. The seed decides who shares a
// body with whom and in what order; the rows a block asks for are the same
// set on every seed, so runs on different seeds measure the same work.
func newServeWarm(seed uint64, tiny bool) workload {
	rng := newRNG(seed, 3)
	w := &serveWarm{ops: 100}
	pool, devs, passes := warmSpecPool(), machine.Names(), 2
	if tiny {
		w.ops, pool, passes = 4, pool[:8], 1
	}
	for p := 0; p < passes; p++ {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
		for _, half := range [][]string{pool[:len(pool)/2], pool[len(pool)/2:]} {
			for _, pair := range [][]string{devs[:2], devs[2:]} {
				devices, specs := slices.Clone(pair), slices.Clone(half)
				w.reqs = append(w.reqs, request{batchBody(devices, specs), cross(devices, specs)})
			}
		}
	}
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	return w
}

func (w *serveWarm) name() string { return "serve_warm" }
func (w *serveWarm) why() string {
	return "warm 64-row POST /v1/batch over loopback: zero simulation; service, its HTTP codec, the runner's warm path and memostore reads do the work"
}
func (w *serveWarm) opsPerBlock() int { return w.ops }
func (w *serveWarm) cells() []cell    { return distinctCells(w.reqs) }

// servedInstance is a service (or coordinator) behind a socket plus the
// client that drives it; the three serving workloads share it.
type servedInstance struct {
	client *opClient
	path   string
	// request returns op i's body and expected cells; expect derives the
	// reference row of a cell.
	request func(i int) request
	expect  func(c cell) run.Result

	prepared memostore.Stats
	runners  []*run.Runner
	apis     []*tracedAPI
	series   []string // /metrics series counters() scrapes
	closers  []func() error
}

func (s *servedInstance) do(ctx context.Context, i int) (any, error) {
	return s.client.post(ctx, s.path, s.request(i).raw)
}

func (s *servedInstance) check(i int, out any) bool {
	rows, ok := replyRows(out)
	return ok && s.firstWrong(rows, s.request(i).cells) < 0
}

// firstWrong returns the index of the first row that differs from its cell's
// reference row (len(cells) when the counts differ), or -1 when all match.
func (s *servedInstance) firstWrong(rows []run.Result, cells []cell) int {
	if len(rows) != len(cells) {
		return len(cells)
	}
	for k, c := range cells {
		if rows[k] != s.expect(c) {
			return k
		}
	}
	return -1
}

func (s *servedInstance) counters() (layerCounters, error) {
	lc := layerCounters{
		reqBytes: s.client.reqBytes, respBytes: s.client.respBytes, rejected: s.client.rejected,
		prepared: s.prepared,
	}
	for _, r := range s.runners {
		hits, misses := r.CacheStats()
		lc.memoHits += hits
		lc.memoMisses += misses
		lc.poolMachines += r.PoolSize()
		lc.tiers = lc.tiers.Add(r.TierStats())
	}
	for _, a := range s.apis {
		lc.assignments += a.assignments.Load()
		lc.cells += a.cells.Load()
		lc.cellsPerWorker = append(lc.cellsPerWorker, a.cells.Load())
		lc.returns += a.returns.Load()
		lc.rows += a.rows.Load()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.client.scrape(ctx, s.series...)
	if err != nil {
		return layerCounters{}, err
	}
	lc.queueDepth = got["simd_queue_depth"]
	lc.requeued = got["simd_cluster_cells_requeued_total"]
	lc.workersLost = got["simd_cluster_workers_lost_total"]
	lc.quarantined = got["simd_cluster_cells_quarantined_total"]
	return lc, nil
}

func (s *servedInstance) close() error {
	s.client.close()
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fill posts each request once and insists on a correct reply: the cold
// fill is part of set-up, and a wrong row there is a harness failure.
func (s *servedInstance) fill(ctx context.Context, reqs []request) error {
	for i, r := range reqs {
		out, err := s.client.post(ctx, s.path, r.raw)
		if err != nil {
			return fmt.Errorf("fill request %d: %w", i, err)
		}
		rows, ok := replyRows(out)
		if !ok {
			return fmt.Errorf("fill request %d: HTTP %d: %s", i, out.status, firstLine(out.body))
		}
		if k := s.firstWrong(rows, r.cells); k >= 0 {
			return fmt.Errorf("fill request %d: %d rows for %d cells, row %d differs from the reference", i, len(rows), len(r.cells), k)
		}
	}
	return nil
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(b), []byte("\n"))
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}

// standalone builds store → service → handler → socket → client the way
// cmd/simd's standalone mode does; tr adds the store decorator and the
// handler middleware.
func standalone(ref *reference, store memostore.Store, tr *tracer) (*servedInstance, error) {
	if tr != nil {
		store = &tracedStore{inner: store, t: tr, parent: tr.handler.Load}
	}
	svc := newService(store)
	handler := service.NewHandler(svc)
	if tr != nil {
		handler = tr.middleware(handler)
	}
	srv, err := listen(handler)
	if err != nil {
		return nil, err
	}
	return &servedInstance{
		client:  newOpClient(srv.addr, tr),
		path:    "/v1/batch",
		expect:  func(c cell) run.Result { return ref.rows[c] },
		runners: []*run.Runner{svc.Runner()},
		series:  []string{"simd_queue_depth"},
		closers: []func() error{srv.close},
	}, nil
}

func (w *serveWarm) setup(ctx context.Context, ref *reference, tr *tracer) (instance, error) {
	store, err := run.OpenStore("", 0, logf)
	if err != nil {
		return nil, err
	}
	inst, err := standalone(ref, store, tr)
	if err != nil {
		return nil, err
	}
	inst.request = func(i int) request { return w.reqs[i%len(w.reqs)] }
	if err := inst.fill(ctx, w.reqs); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// ---- serve_churn ------------------------------------------------------------

// serveChurn posts 16-cell batches to a restarted service: every result it is
// asked for was persisted earlier, and its memory tier holds a quarter of the
// working set, so each cell is a disk read, checksum, decode, promotion into
// memory and the eviction of another — the memostore paths serve_warm, which
// never leaves the memory tier, does not reach.
//
// Disk writes are deliberately outside every timed region. On this host the
// fsync of one small file takes 0.25 ms in one minute and 1.2 ms in the next;
// a batch that persisted eight results read 2.4 ms or 4.4 ms with it, and a
// set-up that persisted 2048 read 0.5 s or 1.4 s. The cache directory is
// therefore written once per run, by the program's own store, before the
// set-ups (prepare). So no end-to-end metric carries the store's write side
// or the runner's cold path behind the service — the issue wanted both here;
// the traced run reports what the preparation's writes cost as layer metrics
// (memostore.disk_put_us, memostore.prepared_writes) and nothing more.
type serveChurn struct {
	presets
	devices []string
	bases   []string // base specs, scaleby left off
	tag0    int      // the stored cells carry scaleby tags tag0+1 … tag0+churnTags
	perDev  int      // stored cells per device
	memSize int      // memory tier, entries
	ops     int
	outDir  string

	dir      string          // the prepared cache directory
	prepared memostore.Stats // what preparing it did to the store
}

const (
	churnTags  = 64 // tags per base spec
	churnBatch = 16 // cells per op
)

func newServeChurn(seed uint64, tiny bool, outDir string) workload {
	rng := newRNG(seed, 4)
	w := &serveChurn{devices: []string{"MangoPi", "VisionFive"}, memSize: 512, ops: 100, outDir: outDir}
	for _, t := range []string{"COPY", "SCALE", "SUM", "TRIAD"} {
		for _, n := range []int{64, 128, 192, 256} {
			w.bases = append(w.bases, streamSpec(t, n, 1))
		}
	}
	rng.Shuffle(len(w.bases), func(i, j int) { w.bases[i], w.bases[j] = w.bases[j], w.bases[i] })
	// 2 devices × 16 bases × 64 tags = 2048 stored cells, four times the
	// memory tier.
	w.perDev = len(w.bases) * churnTags
	if tiny {
		// One entry per memory shard keeps the smoke run evicting.
		w.ops, w.perDev, w.memSize = 4, 2*churnBatch, 16
	}
	w.tag0 = rng.IntN(1 << 20)
	return w
}

func (w *serveChurn) name() string { return "serve_churn" }
func (w *serveChurn) why() string {
	return "16-cell batches of persisted results over a disk-backed store whose 512-entry memory tier is 4x too small: every cell is a disk read, decode, promotion and eviction, which serve_warm never reaches"
}
func (w *serveChurn) opsPerBlock() int { return w.ops }

// tagged is base with the scaleby tag k: a different cache key for the same
// simulated work.
func tagged(base string, k int) string { return base + ",scaleby=" + strconv.Itoa(k) }

// cells are the base cells (tag 1); every stored cell's reference row is
// derived from its base row by expectTagged.
func (w *serveChurn) cells() []cell {
	specs := make([]string, len(w.bases))
	for i, b := range w.bases {
		specs[i] = tagged(b, 1)
	}
	return cross(w.devices, specs)
}

// stored returns a device's n-th stored spec (the same list on every device).
func (w *serveChurn) stored(n int) string {
	n %= w.perDev
	return tagged(w.bases[n%len(w.bases)], w.tag0+1+n/len(w.bases))
}

// batch is a request for count stored specs of one device, from the n-th on.
func (w *serveChurn) batch(dev string, n, count int) request {
	specs := make([]string, count)
	for j := range specs {
		specs[j] = w.stored(n + j)
	}
	return request{batchBody([]string{dev}, specs), cross([]string{dev}, specs)}
}

// op builds op i's request: the devices take turns, each walking its stored
// cells round-robin, so a cell comes round again only after four memory
// tiers' worth of others have been promoted over it.
func (w *serveChurn) op(i int) request {
	visit := i / len(w.devices) // ops this device has served
	return w.batch(w.devices[i%len(w.devices)], visit*churnBatch, churnBatch)
}

// expectTagged derives a tagged cell's reference row from its base row:
// STREAM multiplies the reported bandwidth by scaleby and nothing else.
func expectTagged(ref *reference, c cell) run.Result {
	base, tag, _ := strings.Cut(c.Spec, ",scaleby=")
	k, err := strconv.Atoi(tag)
	if err != nil {
		return run.Result{}
	}
	row := ref.rows[cell{c.Device, tagged(base, 1)}]
	row.Bandwidth = units.BytesPerSec(float64(row.Bandwidth) * float64(k))
	return row
}

// prepare persists every stored cell into a fresh cache directory through
// the program's own tiered store: what a daemon that ran earlier left behind.
func (w *serveChurn) prepare(ctx context.Context, ref *reference, tr *tracer) error {
	dir, err := os.MkdirTemp(w.outDir, "churn-")
	if err != nil {
		return err
	}
	w.dir = dir
	store, err := run.OpenStore(dir, 0, logf)
	if err != nil {
		return err
	}
	var memo memostore.Store = store
	if tr != nil {
		memo = &tracedStore{inner: store, t: tr, parent: tr.handler.Load}
	}
	var cells []cell
	for _, dev := range w.devices {
		cells = append(cells, w.batch(dev, 0, w.perDev).cells...)
	}
	jobs := make([]run.Job, len(cells))
	for i, c := range cells {
		if jobs[i], err = c.job(w.resolve); err != nil {
			return fmt.Errorf("cell %s: %w", c, err)
		}
	}
	rows, err := run.New(run.Options{Store: memo}).Run(ctx, jobs)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if rows[i] != expectTagged(ref, c) {
			return fmt.Errorf("cell %s: row differs from the reference", c)
		}
	}
	w.prepared = store.Stats()
	if int(w.prepared.DiskWrites) != len(cells) {
		return fmt.Errorf("persisted %d of %d cells (%d write errors)", w.prepared.DiskWrites, len(cells), w.prepared.DiskWriteErrors)
	}
	return nil
}

func (w *serveChurn) release() error { return os.RemoveAll(w.dir) }

// setup is a daemon restart over the prepared directory: open the store,
// build the service, listen, and read every stored cell back once.
func (w *serveChurn) setup(ctx context.Context, ref *reference, tr *tracer) (instance, error) {
	store, err := run.OpenStore(w.dir, w.memSize, logf)
	if err != nil {
		return nil, err
	}
	inst, err := standalone(ref, store, tr)
	if err != nil {
		return nil, err
	}
	inst.expect = func(c cell) run.Result { return expectTagged(ref, c) }
	inst.request = w.op
	inst.prepared = w.prepared
	var fill []request
	for _, dev := range w.devices {
		for n := 0; n < w.perDev; n += 128 {
			fill = append(fill, w.batch(dev, n, min(128, w.perDev-n)))
		}
	}
	if err := inst.fill(ctx, fill); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}
