package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/server"
	"ahead/internal/ssb"
	"ahead/internal/storage"
)

// built is the data of one deployment: one DB per node (shards in
// slice order), with the time Generate and NewDB took.
type built struct {
	dbs    []*exec.DB
	genS   float64
	newDBS float64
}

// build generates the SSB data at sf and hardens it into shards DBs
// (1 = single node), every column under the largest A of its width.
// The cluster generates once and slices the fact table per shard, as
// ssb.NewShardSuite does per process.
func build(sf float64, seed int64, shards int) (*built, error) {
	t0 := time.Now()
	data, err := ssb.Generate(sf, seed)
	if err != nil {
		return nil, fmt.Errorf("generate SF %g: %w", sf, err)
	}
	b := &built{genS: time.Since(t0).Seconds()}
	t1 := time.Now()
	for i := 0; i < shards; i++ {
		part := data
		if shards > 1 {
			if part, err = ssb.Partition(data, cluster.ShardSpec{Index: i, Count: shards}); err != nil {
				return nil, fmt.Errorf("partition shard %d/%d: %w", i+1, shards, err)
			}
		}
		db, err := exec.NewDB(part.Tables(), storage.LargestCodeChooser)
		if err != nil {
			return nil, fmt.Errorf("harden: %w", err)
		}
		b.dbs = append(b.dbs, db)
	}
	b.newDBS = time.Since(t1).Seconds()
	return b, nil
}

// storageBytes sums a mode's base-data footprint over all nodes.
func (b *built) storageBytes(m exec.Mode) int {
	total := 0
	for _, db := range b.dbs {
		total += db.StorageBytes(m)
	}
	return total
}

func (b *built) bitPackedBytes() int {
	total := 0
	for _, db := range b.dbs {
		total += db.BitPackedBytes()
	}
	return total
}

// stack is the serving side booted over built data: a morsel pool per
// node and, for HTTP workloads, the servers (and router) listening on
// loopback.
type stack struct {
	url   string // endpoint the load goes to; "" for library use
	pools []*exec.Pool
	https []*http.Server
	serve sync.WaitGroup
	rt    *cluster.Router
	urls  []string // every server's and the router's base URL
}

// bootOpts selects what a stack serves.
type bootOpts struct {
	http    bool // serve over loopback HTTP
	router  bool // put a cluster.Router in front of one server per DB
	workers int
}

// boot starts the stack. With a tracer, every handler, the router's
// shard transport and every plan are wrapped to record spans; without
// one the program runs exactly as shipped.
func boot(b *built, o bootOpts, tr *tracer) (*stack, error) {
	st := &stack{}
	for range b.dbs {
		st.pools = append(st.pools, exec.NewPool(o.workers))
	}
	if !o.http {
		return st, nil
	}
	var shardURLs []string
	for i, db := range b.dbs {
		cfg := server.Config{DB: db, Pool: st.pools[i]}
		if o.router {
			cfg.Shard = cluster.ShardSpec{Index: i, Count: len(b.dbs)}
		}
		var h http.Handler
		if tr != nil {
			cfg.Queries = tracedPlans(tr)
		}
		srv, err := server.New(cfg)
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("server: %w", err)
		}
		h = srv
		if tr != nil {
			h = tracedHandler(tr, spanServer, srv)
		}
		u, err := st.listen(h)
		if err != nil {
			st.stop()
			return nil, err
		}
		shardURLs = append(shardURLs, u)
	}
	st.url = shardURLs[0]
	if o.router {
		var transport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 16}
		if tr != nil {
			transport = &tracedTransport{t: tr, base: transport}
		}
		cfg := cluster.RouterConfig{Client: &http.Client{Transport: transport}}
		for _, u := range shardURLs {
			cfg.Slices = append(cfg.Slices, []string{u})
		}
		rt, err := cluster.NewRouter(cfg)
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("router: %w", err)
		}
		st.rt = rt
		var h http.Handler = rt
		if tr != nil {
			h = tracedHandler(tr, spanRouter, rt)
		}
		if st.url, err = st.listen(h); err != nil {
			st.stop()
			return nil, err
		}
	}
	if err := st.ready(); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	st.https = append(st.https, hs)
	st.serve.Add(1)
	go func() {
		defer st.serve.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	u := "http://" + ln.Addr().String()
	st.urls = append(st.urls, u)
	return u, nil
}

// ready waits until every server and the router answer /readyz.
func (st *stack) ready() error {
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range st.urls {
		for {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready: %v", u, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop shuts the stack down and waits for every goroutine it started.
func (st *stack) stop() {
	if st.rt != nil {
		st.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range st.https {
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = hs.Close()
		}
	}
	st.serve.Wait()
	for _, p := range st.pools {
		p.Close()
	}
	http.DefaultClient.CloseIdleConnections()
}
