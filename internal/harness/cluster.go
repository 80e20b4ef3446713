package harness

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/proxy/faultconn"
	"repro/internal/simnet"
)

// flightPollInterval is how often a singleflight follower re-checks its
// leader's done channel in virtual time on a cluster run. The follower
// cannot block on the channel directly there: it would hold a clock
// ledger token while the leader parks in virtual time on peer-fetch I/O,
// freezing the clock under it.
const flightPollInterval = 250 * time.Microsecond

// nodeName is node ordinal k's ring ID; nodeAddr / peerAddr are its
// client-facing and PXY-P simnet listener names.
func nodeName(k int) string     { return fmt.Sprintf("n%d", k) }
func nodeAddr(k int) string     { return fmt.Sprintf("proxy%d", k) }
func peerAddr(id string) string { return "peer:" + id }

// runCluster executes a Nodes>0 scenario: N proxy servers behind one
// virtual network, each with a shared transmit line at the client link
// rate (a node's NIC serializes its responses, so aggregate serve
// throughput honestly scales with node count), joined into a
// consistent-hash ring by internal/cluster. Clients pin to node
// (client mod Nodes) with exactly the same per-client seed derivations as
// the single-server path; the churn actor registers through a node so
// generation bumps exercise the ring-wide invalidation broadcast.
func runCluster(s Scenario) (*Report, error) {
	goroutinesBefore := runtime.NumGoroutine()

	corpus := buildCorpus(s)
	clock := simnet.NewClock()
	nw := simnet.NewNetwork(clock, s.Link)
	if len(s.Schedule) > 0 {
		if err := nw.SetSchedule(s.Schedule); err != nil {
			return nil, err
		}
	}

	ids := make([]string, s.Nodes)
	for k := range ids {
		ids[k] = nodeName(k)
	}
	// compLog is the cluster-wide compression ledger the per-key oracle
	// reads: every compression on any node records (key, node).
	var compMu sync.Mutex
	compLog := make(map[string][]string)

	peerLink := s.PeerLink
	// One fixed seed for every peer dial: DialLink seeds each endpoint's
	// jitter rng from the link seed alone, so every peer connection
	// replays the same draw sequence no matter how dials interleave.
	peerLink.Seed = mix(s.Seed, 5000)
	dial := func(peer string) (net.Conn, error) {
		return nw.DialLink(peerAddr(peer), peerLink)
	}

	servers := make([]*proxy.Server, s.Nodes)
	nodes := make([]*cluster.Node, s.Nodes)
	for k := 0; k < s.Nodes; k++ {
		id := ids[k]
		srv := proxy.NewServerWith(nil, proxy.Config{
			Clock: clock,
			// Each node gets its own decider instance so per-node metric
			// registries never share counters.
			Decider:  buildDecider(s),
			MaxConns: s.Clients + 2,
			FlightWait: func(done <-chan struct{}) {
				for {
					select {
					case <-done:
						return
					default:
					}
					clock.Sleep(flightPollInterval)
				}
			},
		})
		for _, f := range corpus {
			srv.Register(f.name, f.content)
		}
		n, err := cluster.NewNode(cluster.Config{
			Self:     id,
			Nodes:    ids,
			Replicas: s.Replicas,
			HotK:     s.HotK,
			Dial:     dial,
			Server:   srv,
			Clock:    clock,
			Timeout:  s.Timeout,
			OnCompress: func(key proxy.ArtifactKey) {
				compMu.Lock()
				compLog[cluster.KeyString(key)] = append(compLog[cluster.KeyString(key)], id)
				compMu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		pln, err := nw.Listen(peerAddr(id))
		if err != nil {
			return nil, err
		}
		n.Serve(pln)

		ln, err := nw.Listen(nodeAddr(k))
		if err != nil {
			return nil, err
		}
		// The node's transmitter: all of this node's responses share one
		// line at the client link rate, so a single node cannot serve N
		// clients at N times its radio's capacity.
		if err := nw.SetLine(nodeAddr(k), s.Link); err != nil {
			return nil, err
		}
		srv.Serve(ln)
		servers[k], nodes[k] = srv, n
	}

	records := make([][]FetchRecord, s.Clients)
	tracers := make([]*obs.Tracer, s.Clients)
	done := make(chan int, s.Clients+1)
	running := 0

	// Hold a ledger token until every goroutine below holds its own, so
	// virtual time cannot advance under client 0 before the last starts.
	gate := make(chan struct{})
	clock.Go(func() { <-gate })
	for i := 0; i < s.Clients; i++ {
		i := i
		tracer := obs.NewTracer(s.FetchesPerClient + 1)
		tracers[i] = tracer
		records[i] = make([]FetchRecord, 0, s.FetchesPerClient)
		running++
		clock.Go(func() {
			defer func() { done <- i }()
			// Seed derivations are identical to the single-server path, so
			// a cluster run and a 1-node run of the same seed draw the same
			// schedules, fault plans and jitter streams per client.
			sched := rand.New(rand.NewSource(mix(s.Seed, int64(1000+i))))
			plan := faultconn.Plan{
				Seed:         mix(s.Seed, int64(3000+i)),
				FragmentProb: s.FaultRate,
				ResetProb:    s.FaultRate,
				TruncateProb: s.FaultRate,
				BitFlipProb:  s.FaultRate,
			}
			addr := nodeAddr(i % s.Nodes)
			var dials int64
			cli := proxy.NewClient(addr)
			cli.Clock = clock
			cli.Timeout = s.Timeout
			cli.MaxRetries = s.MaxRetries
			cli.RetryBaseDelay = 10 * time.Millisecond
			cli.RetryMaxDelay = 200 * time.Millisecond
			cli.Rand = rand.New(rand.NewSource(mix(s.Seed, int64(2000+i))))
			cli.Tracer = tracer
			cli.DeadlineClass = s.DeadlineClass
			cli.EnergyBudgetJ = s.BudgetJ
			cli.Dial = func() (net.Conn, error) {
				dials++
				link := s.Link
				link.Seed = mix(s.Seed, int64(i)*1_000_000+dials)
				conn, err := nw.DialLink(addr, link)
				if err != nil {
					return nil, err
				}
				return plan.Wrap(conn, dials), nil
			}

			clock.Sleep(time.Duration(i) * time.Millisecond)
			for j := 0; j < s.FetchesPerClient; j++ {
				f := corpus[sched.Intn(len(corpus))]
				scheme := schemes[sched.Intn(len(schemes))]
				mode := modes[sched.Intn(len(modes))]
				fetchStart := clock.Elapsed()
				got, stats, err := cli.Fetch(f.name, scheme, mode)
				rec := FetchRecord{Client: i, Index: j, Name: f.name,
					Scheme: scheme, Mode: mode, Err: errClass(err), Stats: stats,
					Virtual: clock.Elapsed() - fetchStart, VStart: fetchStart}
				if err == nil {
					rec.Raw = len(got)
					rec.CRC = crc32.ChecksumIEEE(got)
				}
				records[i] = append(records[i], rec)
				clock.Sleep(time.Duration(sched.Intn(20)) * time.Millisecond)
			}
		})
	}

	if s.Churn > 0 {
		running++
		clock.Go(func() {
			defer func() { done <- -1 }()
			rng := rand.New(rand.NewSource(mix(s.Seed, 4000)))
			for k := 0; k < s.Churn; k++ {
				clock.Sleep(time.Duration(20+rng.Intn(20)) * time.Millisecond)
				f := corpus[rng.Intn(len(corpus))]
				// Register through a node, not a server: the bump must
				// broadcast ring-wide invalidations, the thing churn is
				// here to stress.
				nodes[rng.Intn(len(nodes))].Register(f.name, f.content)
			}
		})
	}

	close(gate)
	for running > 0 {
		<-done
		running--
	}
	elapsed := clock.Elapsed()
	// Nodes first (their peer handlers use the servers), then the servers.
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			return nil, err
		}
	}
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}

	r := &Report{Scenario: s, Elapsed: elapsed}
	for _, srv := range servers {
		st := srv.Stats()
		r.PerNode = append(r.PerNode, st)
		r.Stats = sumStats(r.Stats, st)
	}
	for i := 0; i < s.Clients; i++ {
		r.Records = append(r.Records, records[i]...)
		r.Spans = append(r.Spans, tracers[i].Snapshot())
	}
	r.runOracles(corpus, goroutinesBefore)
	r.checkClusterCompressions(compLog)
	return r, nil
}

// checkClusterCompressions is the tentpole oracle: cluster-wide, an
// artifact key is compressed at most once — the ring owner builds it,
// everyone else peer-fetches or coalesces. Churn relaxes the bound to one
// per node: a requester racing a generation bump can find the owner
// already ahead (ErrStaleGeneration) and degrade to compressing its stale
// generation locally, and in the worst case every node does so once.
func (r *Report) checkClusterCompressions(compLog map[string][]string) {
	limit := 1
	if r.Scenario.Churn > 0 {
		limit = r.Scenario.Nodes
	}
	var total int64
	keys := make([]string, 0, len(compLog))
	for k := range compLog {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nodes := compLog[k]
		total += int64(len(nodes))
		if len(nodes) > limit {
			r.violate("cluster: key %q compressed %d times (on %v), limit %d",
				k, len(nodes), nodes, limit)
		}
	}
	if total != r.Stats.Compressions {
		r.violate("cluster: compression ledger saw %d compressions, counters say %d",
			total, r.Stats.Compressions)
	}
}

// sumStats adds b's counters into a field-by-field; gauges and the
// latency histogram sum too (bucket bounds are identical across nodes).
func sumStats(a, b proxy.Stats) proxy.Stats {
	a.Requests += b.Requests
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.Coalesced += b.Coalesced
	a.Compressions += b.Compressions
	a.Evictions += b.Evictions
	a.CacheRejects += b.CacheRejects
	a.CacheEntries += b.CacheEntries
	a.CacheBytes += b.CacheBytes
	a.BytesServedRaw += b.BytesServedRaw
	a.BytesServedCompressed += b.BytesServedCompressed
	a.PeerFetches += b.PeerFetches
	a.PeerFetchErrors += b.PeerFetchErrors
	a.RingOwnerHits += b.RingOwnerHits
	a.RingRemoteHits += b.RingRemoteHits
	a.ConnsTotal += b.ConnsTotal
	a.ConnsActive += b.ConnsActive
	a.ConnsRejected += b.ConnsRejected
	a.Errors += b.Errors
	if a.Latency == nil {
		a.Latency = append([]proxy.LatencyBucket(nil), b.Latency...)
	} else {
		for i := range a.Latency {
			if i < len(b.Latency) {
				a.Latency[i].Count += b.Latency[i].Count
			}
		}
	}
	if a.CompressInputBytes == nil {
		a.CompressInputBytes = make(map[string]int64, len(b.CompressInputBytes))
	}
	for k, v := range b.CompressInputBytes {
		a.CompressInputBytes[k] += v
	}
	return a
}
