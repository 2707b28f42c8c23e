package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	mr "repro"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The serve-mixed workload: three tenants submit jobs to the mrscand
// HTTP API in an open loop at a fixed rate well below capacity, then
// poll each job's status and read its result back.
const (
	serveTenants = 3
	// serveRate is the offered load in jobs per second. Rounds of jobs,
	// one per pool entry in a seeded order, keep the mix identical in
	// every run.
	serveRate = 2.25
	// serveVariants is the number of seeded inputs of each job kind.
	// Job cost differs between inputs of one kind, so the pool holds
	// several.
	serveVariants = 3
	servePoll     = 10 * time.Millisecond
	// serveJobTimeout bounds how long the client waits for one job, so a
	// stuck server ends the run instead of hanging it.
	serveJobTimeout = 60 * time.Second
	// serveHistory is the number of small completed jobs journaled on the
	// state directory before set-up, so that server start replays a
	// history.
	serveHistory     = 1000
	serveHistorySize = 100
	// serveStarts is the number of server starts the set-up figure is the
	// median of.
	serveStarts = 25
	// serveConns bounds the client's connections to the host's two cores.
	serveConns = 2
)

// poolEntry is one input the tenants submit jobs on.
type poolEntry struct {
	name   string // the job kind
	pts    []mr.Point
	eps    float64
	minPts int
	leaves int
	ref    *oracle
	points []byte // the JSON array of the entry's points
}

func servePool(seed int64) ([]*poolEntry, error) {
	var pool []*poolEntry
	for v := int64(0); v < serveVariants; v++ {
		s := (seed*serveVariants + v) * 3
		pool = append(pool,
			&poolEntry{name: "twitter-20k", pts: mr.Twitter(20_000, s), eps: 0.1, minPts: 400, leaves: 2},
			&poolEntry{name: "twitter-50k", pts: mr.Twitter(50_000, s+1), eps: 0.1, minPts: 400, leaves: 4},
			&poolEntry{name: "sdss-50k", pts: mr.SDSS(50_000, s+2), eps: 0.00015, minPts: 5, leaves: 4},
		)
	}
	type pointJSON struct {
		ID uint64  `json:"id"`
		X  float64 `json:"x"`
		Y  float64 `json:"y"`
	}
	for _, e := range pool {
		e.ref = newOracle(e.pts, e.eps, e.minPts)
		js := make([]pointJSON, len(e.pts))
		for i, p := range e.pts {
			js[i] = pointJSON{p.ID, p.X, p.Y}
		}
		var err error
		if e.points, err = json.Marshal(js); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// body is the submission of entry e by tenant t.
func (e *poolEntry) body(tenant string) io.Reader {
	head := fmt.Sprintf(`{"tenant":%q,"eps":%v,"min_pts":%d,"leaves":%d,"points":`, tenant, e.eps, e.minPts, e.leaves)
	return io.MultiReader(bytes.NewReader([]byte(head)), bytes.NewReader(e.points), bytes.NewReader([]byte("}")))
}

// liveServer is one started server with its HTTP front end.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func (l *liveServer) stop() {
	l.hs.Close()
	<-l.done
	l.srv.Close()
}

// startServer starts a server on the journal's state directory and
// returns once /healthz answers.
func startServer(cfg server.Config, client *http.Client) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(l.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Now().After(deadline) {
			l.stop()
			return nil, fmt.Errorf("server did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobRecord is the client's view of one submitted job.
type jobRecord struct {
	entry  *poolEntry
	due    time.Time
	lag    time.Duration
	submit time.Duration
	result time.Duration
	polls  int
	done   time.Time
	status server.JobStatus
	labels []int
	err    error
}

func runServe(b *bench) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	pool, err := servePool(b.seed)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	cfg := server.Config{
		StateDir:  "state",
		JournalFS: server.LustreJournalFS(mr.NewFS()),
		// Degraded mode switches on past wall-time watermarks; it would
		// make the workload's outputs depend on host speed.
		DegradeQueueDepth: -1,
	}
	if err := seedHistory(cfg, b.seed); err != nil {
		return nil, err
	}

	// Set-up: server start on the journaled history until /healthz
	// answers. The last start serves the load.
	var live *liveServer
	starts := make([]float64, 0, serveStarts)
	for i := 0; i < serveStarts; i++ {
		if live != nil {
			live.stop()
			transport.CloseIdleConnections()
		}
		// A start in production runs on a small heap; collect the
		// benchmark's own garbage first so that no cycle of it lands in
		// the timed start.
		runtime.GC()
		sp := b.hub.Start(nil, "setup:server-start")
		t0 := time.Now()
		if live, err = startServer(cfg, client); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
		sp.End()
	}
	defer live.stop()
	out.e2e["setup_s"] = median(starts)

	rounds := int(b.seconds.Seconds() * serveRate / float64(len(pool)))
	if rounds < 1 {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(b.seed))
	jobs := make([]*jobRecord, 0, rounds*len(pool))
	t0 := time.Now().Add(50 * time.Millisecond)
	for r := 0; r < rounds; r++ {
		for _, k := range rng.Perm(len(pool)) {
			i := len(jobs)
			due := t0.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
			jobs = append(jobs, &jobRecord{entry: pool[k], due: due})
		}
	}
	meter := startMeter()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(j *jobRecord, tenant string) {
			defer wg.Done()
			runJob(b.hub, client, live.base, tenant, j)
		}(j, fmt.Sprintf("tenant-%d", i%serveTenants))
	}
	wg.Wait()
	meter.record(out.layers, len(jobs))

	byKind := map[string][]float64{}
	var lat, submit, result, wait, run, polls []float64
	var maxLag time.Duration
	var last time.Time
	completedPoints := 0
	s := samples{}
	for i, j := range jobs {
		out.attempted++
		if j.lag > maxLag {
			maxLag = j.lag
		}
		if j.err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "job %d (%s): %v\n", i, j.entry.name, j.err)
			continue
		}
		lat = append(lat, ms(j.done.Sub(j.due)))
		byKind[j.entry.name] = append(byKind[j.entry.name], ms(j.done.Sub(j.due)))
		submit = append(submit, ms(j.submit))
		result = append(result, ms(j.result))
		wait = append(wait, ms(j.status.Started.Sub(j.status.Submitted)))
		run = append(run, ms(j.status.Finished.Sub(j.status.Started)))
		polls = append(polls, float64(j.polls))
		completedPoints += len(j.entry.pts)
		if j.done.After(last) {
			last = j.done
		}
		checkPipeline(out, s, j.entry.ref, j.labels, fmt.Sprintf("job %d (%s)", i, j.entry.name))
	}
	if completedPoints > 0 {
		out.e2e["points_per_s"] = float64(completedPoints) / last.Sub(t0).Seconds()
	}
	// The job kinds differ threefold in cost, so the overall median
	// would sit on the edge between two kinds and jump between them;
	// the figure is the mean of the kinds' medians.
	var kindMedians []float64
	for kind, l := range byKind {
		kindMedians = append(kindMedians, median(l))
		fmt.Fprintf(os.Stderr, "serve: %s median %.1f ms over %d jobs\n", kind, median(l), len(l))
	}
	fmt.Fprintf(os.Stderr, "serve: overall median %.1f ms over %d jobs\n", median(lat), len(lat))
	out.e2e["op_p50_ms"] = mean(kindMedians)
	out.layers["http.submit_ms"] = median(submit)
	out.layers["http.result_ms"] = median(result)
	out.layers["server.queue_wait_ms"] = median(wait)
	out.layers["server.run_ms"] = median(run)
	out.layers["server.polls_per_job"] = mean(polls)
	out.layers["loadgen.lag_ms"] = ms(maxLag)

	if b.hub != nil {
		// The server keeps each job's pipeline telemetry private, so the
		// pipeline layers are read from the same pool inputs run through
		// RunPoints with the server's job configuration.
		for _, e := range pool {
			cfg := mr.Default(e.eps, e.minPts, e.leaves)
			cfg.IncludeNoise = true
			cfg.Checkpoint = true
			res, _, err := mr.RunPoints(e.pts, cfg)
			if err != nil {
				return nil, fmt.Errorf("pipeline probe %s: %w", e.name, err)
			}
			s.addPipeline(res)
			if err := s.probeLayers(b.hub, e.pts, cfg); err != nil {
				return nil, err
			}
		}
		// One round holds each pool entry once, so a job's figure is the
		// mean over the pool.
		for name, vs := range s {
			out.layers[name] = mean(vs)
		}
	}
	return out, nil
}

// runJob submits one job when it is due, polls its status until it is
// terminal and reads its result. Latency runs from the due time, so a
// late generator or a stalled server shows in it.
func runJob(hub *telemetry.Hub, client *http.Client, base, tenant string, j *jobRecord) {
	time.Sleep(time.Until(j.due))
	root := hub.Start(nil, "serve.job", telemetry.String("pool", j.entry.name), telemetry.String("tenant", tenant))
	defer root.End()
	sent := time.Now()
	j.lag = sent.Sub(j.due)

	sp := hub.Start(root, "http.submit")
	var sub struct {
		ID     string `json:"id"`
		Reason string `json:"reason"`
	}
	code, err := doJSON(client, http.MethodPost, base+"/api/v1/jobs", j.entry.body(tenant), &sub)
	j.submit = time.Since(sent)
	sp.End()
	switch {
	case err != nil:
		j.err = fmt.Errorf("submit: %w", err)
		return
	case code != http.StatusAccepted:
		j.err = fmt.Errorf("submit rejected: HTTP %d (%s)", code, sub.Reason)
		return
	}

	sp = hub.Start(root, "server.wait")
	for !j.status.State.Terminal() {
		if time.Since(j.due) > serveJobTimeout {
			j.err = fmt.Errorf("job %s not finished after %v", sub.ID, serveJobTimeout)
			sp.End()
			return
		}
		time.Sleep(servePoll)
		j.polls++
		if _, err := doJSON(client, http.MethodGet, base+"/api/v1/jobs/"+sub.ID, nil, &j.status); err != nil {
			j.err = fmt.Errorf("status: %w", err)
			sp.End()
			return
		}
	}
	sp.End()
	switch {
	case j.status.State != server.StateCompleted:
		j.err = fmt.Errorf("job %s ended %s: %s", sub.ID, j.status.State, j.status.Err)
		return
	case j.status.Degraded:
		j.err = fmt.Errorf("job %s ran degraded", sub.ID)
		return
	}

	sp = hub.Start(root, "http.result")
	t0 := time.Now()
	var res struct {
		Labels []int `json:"labels"`
	}
	code, err = doJSON(client, http.MethodGet, base+"/api/v1/jobs/"+sub.ID+"/result", nil, &res)
	j.done = time.Now()
	j.result = j.done.Sub(t0)
	sp.End()
	switch {
	case err != nil:
		j.err = fmt.Errorf("result: %w", err)
	case code != http.StatusOK:
		j.err = fmt.Errorf("result: HTTP %d", code)
	default:
		j.labels = res.Labels
	}
}

// doJSON sends one request and decodes the JSON response into v.
func doJSON(client *http.Client, method, url string, body io.Reader, v any) (int, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// seedHistory journals serveHistory small completed jobs on the state
// directory, so that every later server start replays them.
func seedHistory(cfg server.Config, seed int64) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	// Submit in bursts that fit the tenant queues, waiting for each.
	const burst = 3 * serveTenants
	for i := 0; i < serveHistory; i += burst {
		var ids []string
		for k := i; k < i+burst && k < serveHistory; k++ {
			id, err := srv.Submit(server.JobSpec{
				Tenant: fmt.Sprintf("tenant-%d", k%serveTenants),
				Points: mr.Twitter(serveHistorySize, seed*serveHistory+int64(k)),
				Eps:    0.1, MinPts: 5, Leaves: 1,
			})
			if err != nil {
				return fmt.Errorf("history job %d: %w", k, err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			for {
				st, err := srv.Status(id)
				if err != nil {
					return err
				}
				if st.State.Terminal() {
					if st.State != server.StateCompleted {
						return fmt.Errorf("history job %s ended %s: %s", id, st.State, st.Err)
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}
