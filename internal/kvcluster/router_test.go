package kvcluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/adaptivekv"
	"repro/internal/fleet"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

func nodeConfig() fleet.NodeConfig {
	// Big enough that the test working set never evicts: replies are then
	// a pure function of the set sequence, which the byte-exact oracle
	// comparison depends on.
	return fleet.NodeConfig{Server: kvserver.Config{
		Cache: adaptivekv.Config{Shards: 2, Sets: 256, Ways: 8},
	}}
}

// routedCluster brings up n cache nodes, a Cluster over them, and a
// Router listening on loopback. Probers are not started: tests flip
// health by hand so outcomes stay deterministic.
func routedCluster(t *testing.T, n int) (*fleet.Fleet, *Cluster, string) {
	t.Helper()
	f, err := fleet.Start(n, func(int) fleet.NodeConfig { return nodeConfig() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cl, err := New(Config{Nodes: f.Addrs(), Seed: 42, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	r := NewRouter(cl, RouterConfig{WriteTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Shutdown(ln, time.Second) })
	return f, cl, ln.Addr().String()
}

// oracleNode brings up one cache node and returns its address.
func oracleNode(t *testing.T) string {
	t.Helper()
	n, err := fleet.StartNode(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n.Addr()
}

// testCorpus is the byte-exact working set: every third key is a miss,
// flags vary, values are CRLF-free so replies split cleanly on lines.
func testCorpus(n int) (keys [][]byte, vals map[string][]byte, flags map[string]uint32) {
	keys = make([][]byte, n)
	vals = make(map[string][]byte, n)
	flags = make(map[string]uint32, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bk-%05d", i))
		if i%3 != 0 {
			vals[string(keys[i])] = []byte(fmt.Sprintf("value-%d", i))
			flags[string(keys[i])] = uint32(i % 5)
		}
	}
	return keys, vals, flags
}

func loadCorpus(t *testing.T, addr string, keys [][]byte, vals map[string][]byte, flags map[string]uint32) {
	t.Helper()
	c, err := kvproto.DialTimeout(addr, 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, k := range keys {
		v, ok := vals[string(k)]
		if !ok {
			continue
		}
		if err := c.Set(k, flags[string(k)], 0, v); err != nil {
			t.Fatalf("set %q: %v", k, err)
		}
	}
}

// rawBurst writes req bytes to addr and reads reply lines until
// wantTerms terminator lines (END or SERVER_ERROR/ERROR) have arrived,
// returning the raw reply bytes. Test values never contain CRLF, so
// line framing is unambiguous.
func rawBurst(t *testing.T, addr, req string, wantTerms int) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	br := bufio.NewReader(conn)
	terms := 0
	for terms < wantTerms {
		line, err := br.ReadString('\n')
		raw.WriteString(line)
		if err != nil {
			t.Fatalf("reply truncated after %q: %v", raw.String(), err)
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "END" || trimmed == "ERROR" ||
			strings.HasPrefix(trimmed, "SERVER_ERROR") ||
			strings.HasPrefix(trimmed, "CLIENT_ERROR") ||
			trimmed == "STORED" || trimmed == "EXISTS" || trimmed == "DELETED" ||
			trimmed == "NOT_FOUND" || trimmed == "OK" {
			terms++
		}
	}
	return raw.Bytes()
}

// TestRouterMultiGetByteExact: a scatter-gathered multiget through the
// 3-node router produces byte-for-byte the reply a single node holding
// the whole corpus produces — same VALUE blocks, same order, same
// terminator — including when the burst is pipelined.
func TestRouterMultiGetByteExact(t *testing.T) {
	_, _, routerAddr := routedCluster(t, 3)
	oracle := oracleNode(t)
	keys, vals, flags := testCorpus(96)
	loadCorpus(t, routerAddr, keys, vals, flags)
	loadCorpus(t, oracle, keys, vals, flags)

	// One full-width multiget plus a pipelined run of smaller ones, with
	// gets requests interleaved so get runs and gets runs alternate.
	var sb strings.Builder
	for _, r := range []struct {
		cmd  string
		keys [][]byte
	}{
		{"get", keys[:48]},
		{"gets", keys[10:34]},
		{"get", keys[48:80]},
		{"get", keys[81:82]},
		{"gets", keys[60:96]},
		{"gets", keys[2:3]},
		{"get", keys[82:90]},
	} {
		sb.WriteString(r.cmd)
		for _, k := range r.keys {
			sb.WriteByte(' ')
			sb.Write(k)
		}
		sb.WriteString("\r\n")
	}
	req := sb.String()

	got := maskCas(t, rawBurst(t, routerAddr, req, 7))
	want := maskCas(t, rawBurst(t, oracle, req, 7))
	if !bytes.Equal(got, want) {
		t.Fatalf("router reply differs from oracle:\nrouter: %q\noracle: %q", got, want)
	}
	if !bytes.Contains(got, []byte("VALUE ")) || !bytes.Contains(got, []byte(" CAS\r\n")) {
		t.Fatal("reply lacks get or gets VALUE blocks; corpus not loaded?")
	}
}

// maskCas replaces the cas unique of every gets VALUE line with "CAS":
// uniques are node-local, so a router and a single node legitimately
// disagree on them. Each must still be nonzero (0 is never issued).
func maskCas(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := strings.Split(string(raw), "\r\n")
	for i := 0; i < len(lines); i++ {
		f := strings.Fields(lines[i])
		if len(f) == 0 || f[0] != "VALUE" {
			continue
		}
		i++ // the data line: test values never contain CRLF
		if len(f) != 5 {
			continue
		}
		if f[4] == "0" {
			t.Fatalf("gets VALUE line %q carries a zero cas unique", lines[i-1])
		}
		f[4] = "CAS"
		lines[i-1] = strings.Join(f, " ")
	}
	return []byte(strings.Join(lines, "\r\n"))
}

// getsRec is one parsed VALUE block of a gets reply.
type getsRec struct {
	key   string
	flags uint32
	casid uint64
	val   string
}

// parseGetsReply splits a raw gets reply into its VALUE records and the
// terminator line. Test values never contain CRLF, so line framing is
// unambiguous.
func parseGetsReply(t *testing.T, raw []byte) ([]getsRec, string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(raw), "\r\n"), "\r\n")
	var recs []getsRec
	for i := 0; i < len(lines); i++ {
		ln := lines[i]
		if !strings.HasPrefix(ln, "VALUE ") {
			return recs, ln
		}
		var rec getsRec
		var size int
		if _, err := fmt.Sscanf(ln, "VALUE %s %d %d %d", &rec.key, &rec.flags, &size, &rec.casid); err != nil {
			t.Fatalf("bad gets VALUE line %q: %v", ln, err)
		}
		i++
		if i >= len(lines) || len(lines[i]) != size {
			t.Fatalf("VALUE %s: data line does not match advertised size %d", rec.key, size)
		}
		rec.val = lines[i]
		recs = append(recs, rec)
	}
	t.Fatalf("gets reply has no terminator: %q", raw)
	return nil, ""
}

// TestRouterGetsCasRoundTrip: the full read-modify-write cycle through
// the router behaves outcome-for-outcome like a single node — gets
// returns the corpus value with a nonzero cas unique, cas with that
// unique swaps exactly once (STORED), replaying the consumed unique
// conflicts (EXISTS), and cas on an absent key answers NOT_FOUND. Cas
// uniques are node-local so the raw bytes can't be oracle-compared, but
// each side's own unique must drive the identical outcome sequence.
func TestRouterGetsCasRoundTrip(t *testing.T) {
	_, _, routerAddr := routedCluster(t, 3)
	oracle := oracleNode(t)
	keys, vals, flags := testCorpus(30)
	loadCorpus(t, routerAddr, keys, vals, flags)
	loadCorpus(t, oracle, keys, vals, flags)

	hot := string(keys[1])  // corpus hit (1%3 != 0)
	miss := string(keys[0]) // corpus miss
	for _, addr := range []string{routerAddr, oracle} {
		recs, term := parseGetsReply(t, rawBurst(t, addr, "gets "+hot+"\r\n", 1))
		if term != "END" || len(recs) != 1 {
			t.Fatalf("gets via %s: recs=%v term=%q", addr, recs, term)
		}
		r := recs[0]
		if r.key != hot || r.flags != flags[hot] || r.val != string(vals[hot]) || r.casid == 0 {
			t.Fatalf("gets via %s = %+v, want corpus value with nonzero unique", addr, r)
		}
		casReq := fmt.Sprintf("cas %s %d 0 3 %d\r\nnew\r\n", hot, r.flags, r.casid)
		if got := rawBurst(t, addr, casReq, 1); string(got) != "STORED\r\n" {
			t.Fatalf("winning cas via %s = %q", addr, got)
		}
		if got := rawBurst(t, addr, casReq, 1); string(got) != "EXISTS\r\n" {
			t.Fatalf("replayed unique via %s = %q, want EXISTS", addr, got)
		}
		recs, _ = parseGetsReply(t, rawBurst(t, addr, "gets "+hot+"\r\n", 1))
		if len(recs) != 1 || recs[0].val != "new" || recs[0].casid == r.casid {
			t.Fatalf("post-swap gets via %s = %v, want exactly one applied swap with a fresh unique", addr, recs)
		}
		if got := rawBurst(t, addr, "cas "+miss+" 0 0 1 7\r\nx\r\n", 1); string(got) != "NOT_FOUND\r\n" {
			t.Fatalf("cas on absent key via %s = %q", addr, got)
		}
	}
}

// ejectOwner force-ejects the owner of key and returns its index.
func ejectOwner(cl *Cluster, key []byte) int {
	idx := cl.ring.OwnerIndex(key)
	for i := 0; i < cl.cfg.FailThreshold; i++ {
		cl.pools[idx].noteFailure()
	}
	return idx
}

// TestRouterEjectedNodeFailsFast: with one owner ejected, its keyspace
// answers SERVER_ERROR node down (sets and gets alike), a multiget
// spanning it delivers the surviving VALUE blocks in request order and
// terminates with SERVER_ERROR instead of END, and the rest of the ring
// keeps serving. Reintegration restores byte-exact parity with the
// oracle.
func TestRouterEjectedNodeFailsFast(t *testing.T) {
	_, cl, routerAddr := routedCluster(t, 3)
	oracle := oracleNode(t)
	keys, vals, flags := testCorpus(60)
	loadCorpus(t, routerAddr, keys, vals, flags)
	loadCorpus(t, oracle, keys, vals, flags)

	down := ejectOwner(cl, keys[1]) // keys[1] is a hit (1%3 != 0)
	if !cl.Ejected(down) {
		t.Fatal("owner not ejected")
	}

	// Single-key get on the dead keyspace: deterministic fail-fast line.
	got := rawBurst(t, routerAddr, "get "+string(keys[1])+"\r\n", 1)
	if string(got) != "SERVER_ERROR node down\r\n" {
		t.Fatalf("ejected-owner get = %q", got)
	}

	// A set routed to the dead node fails the same way; a set owned by a
	// survivor still stores.
	// aliveKey must be a corpus hit: the set below clobbers its value with
	// "x", and only keys present in vals get repaired by loadCorpus before
	// the byte-exact multiget comparison.
	var aliveKey, deadKey []byte
	for _, k := range keys {
		if cl.ring.OwnerIndex(k) == down {
			deadKey = k
		} else if _, hit := vals[string(k)]; hit {
			aliveKey = k
		}
	}
	if deadKey == nil || aliveKey == nil {
		t.Fatal("corpus does not span the ejected and surviving keyspaces")
	}
	if got := rawBurst(t, routerAddr, "set "+string(deadKey)+" 0 0 1\r\nx\r\n", 1); string(got) != "SERVER_ERROR node down\r\n" {
		t.Fatalf("ejected-owner set = %q", got)
	}
	if got := rawBurst(t, routerAddr, "set "+string(aliveKey)+" 0 0 1\r\nx\r\n", 1); string(got) != "STORED\r\n" {
		t.Fatalf("surviving-owner set = %q", got)
	}
	// Repair the value the line above just clobbered so the post-repair
	// oracle comparison still holds.
	loadCorpus(t, routerAddr, [][]byte{aliveKey}, vals, flags)

	// Multiget spanning the outage: surviving hits in exact request
	// order, SERVER_ERROR terminator instead of END.
	var sb strings.Builder
	sb.WriteString("get")
	for _, k := range keys {
		sb.WriteByte(' ')
		sb.Write(k)
	}
	sb.WriteString("\r\n")
	var want bytes.Buffer
	for _, k := range keys {
		v, hit := vals[string(k)]
		if !hit || cl.ring.OwnerIndex(k) == down {
			continue
		}
		fmt.Fprintf(&want, "VALUE %s %d %d\r\n%s\r\n", k, flags[string(k)], len(v), v)
	}
	want.WriteString("SERVER_ERROR node down\r\n")
	got = rawBurst(t, routerAddr, sb.String(), 1)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("partial multiget reply:\ngot:  %q\nwant: %q", got, want.Bytes())
	}

	// Reintegrate (what a probe success does) and verify full parity.
	cl.pools[down].noteSuccess()
	got = rawBurst(t, routerAddr, sb.String(), 1)
	wantFull := rawBurst(t, oracle, sb.String(), 1)
	if !bytes.Equal(got, wantFull) {
		t.Fatalf("post-reintegration reply differs from oracle:\ngot:  %q\nwant: %q", got, wantFull)
	}
}

// TestRouterGetRunPerRequestTerminators: one write pipelines a get, a
// gets, a get spanning an ejected owner and a clean get. The router
// batches the trailing gets into one run, yet every request ends on its
// own terminator: the spanning get answers its surviving hits then
// SERVER_ERROR node down, and its clean neighbour still answers END.
func TestRouterGetRunPerRequestTerminators(t *testing.T) {
	_, cl, routerAddr := routedCluster(t, 3)
	keys, vals, flags := testCorpus(60)
	loadCorpus(t, routerAddr, keys, vals, flags)
	down := ejectOwner(cl, keys[1])

	var alive [][]byte
	for _, k := range keys {
		if cl.ring.OwnerIndex(k) != down {
			alive = append(alive, k)
		}
	}
	line := func(cmd string, ks [][]byte) string {
		var sb strings.Builder
		sb.WriteString(cmd)
		for _, k := range ks {
			sb.WriteByte(' ')
			sb.Write(k)
		}
		sb.WriteString("\r\n")
		return sb.String()
	}
	// getReply is the reply a get of ks earns: its live hits in request
	// order, then term.
	getReply := func(ks [][]byte, term string) string {
		var sb strings.Builder
		for _, k := range ks {
			if v, hit := vals[string(k)]; hit && cl.ring.OwnerIndex(k) != down {
				fmt.Fprintf(&sb, "VALUE %s %d %d\r\n%s\r\n", k, flags[string(k)], len(v), v)
			}
		}
		return sb.String() + term + "\r\n"
	}

	getsLine := line("gets", alive[5:15])
	// Cas uniques are node-local; a standalone gets of the same keys (no
	// writes in between) gives the exact bytes the pipelined one must.
	getsReply := string(rawBurst(t, routerAddr, getsLine, 1))
	if !strings.HasSuffix(getsReply, "END\r\n") || !strings.Contains(getsReply, "VALUE ") {
		t.Fatalf("standalone gets = %q, want hits and END", getsReply)
	}

	req := line("get", alive[:10]) + getsLine + line("get", keys[:30]) + line("get", alive[20:30])
	want := getReply(alive[:10], "END") + getsReply +
		getReply(keys[:30], "SERVER_ERROR node down") + getReply(alive[20:30], "END")
	if got := rawBurst(t, routerAddr, req, 4); string(got) != want {
		t.Fatalf("pipelined burst:\ngot:  %q\nwant: %q", got, want)
	}
}

// TestClusterMultiGetWideBurst: the library-level MultiGet takes bursts
// far past the protocol's per-request cap — per-node chunking happens in
// the backend clients — and reports every hit at its request index.
func TestClusterMultiGetWideBurst(t *testing.T) {
	f, cl, _ := routedCluster(t, 3)
	_ = f
	keys, vals, flags := testCorpus(3*kvproto.MaxGetKeys + 11)
	// Load through the cluster directly.
	for _, k := range keys {
		if v, ok := vals[string(k)]; ok {
			if err := cl.Set(k, flags[string(k)], 0, v); err != nil {
				t.Fatalf("set %q: %v", k, err)
			}
		}
	}
	got := make(map[int][]byte)
	err := cl.MultiGet(keys, func(i int, fl uint32, val []byte) {
		if want := flags[string(keys[i])]; fl != want {
			t.Errorf("key %d: flags %d, want %d", i, fl, want)
		}
		got[i] = append([]byte(nil), val...)
	})
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i, k := range keys {
		want, hit := vals[string(k)]
		v, found := got[i]
		if hit != found {
			t.Fatalf("key %d: hit=%v found=%v", i, hit, found)
		}
		if hit && !bytes.Equal(v, want) {
			t.Fatalf("key %d: value %q, want %q", i, v, want)
		}
	}
}

// TestRouterStatsAndNoop: the router answers the protocol's service
// commands itself — stats reports fleet health, noop round-trips.
func TestRouterStatsAndNoop(t *testing.T) {
	_, cl, routerAddr := routedCluster(t, 3)
	c, err := kvproto.DialTimeout(routerAddr, 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Noop(); err != nil {
		t.Fatalf("noop via router: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["nodes"] != "3" || st["nodes_ejected"] != "0" {
		t.Fatalf("stats nodes=%q ejected=%q", st["nodes"], st["nodes_ejected"])
	}
	ejectOwner(cl, []byte("whatever"))
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["nodes_ejected"] != "1" {
		t.Fatalf("stats after ejection: nodes_ejected=%q", st["nodes_ejected"])
	}
}

// TestRouterFlushAll: flush_all through the router empties every node
// and replies OK; with an ejected node in a single-replica cluster the
// flush is partial, so the router reports node down instead of lying.
func TestRouterFlushAll(t *testing.T) {
	f, cl, routerAddr := routedCluster(t, 3)
	keys, vals, flags := testCorpus(60)
	loadCorpus(t, routerAddr, keys, vals, flags)

	total := 0
	for _, n := range f.Nodes {
		total += n.Server().Cache().Len()
	}
	if total == 0 {
		t.Fatal("corpus not loaded")
	}
	if got := rawBurst(t, routerAddr, "flush_all\r\n", 1); string(got) != "OK\r\n" {
		t.Fatalf("flush_all reply = %q", got)
	}
	for i, n := range f.Nodes {
		if l := n.Server().Cache().Len(); l != 0 {
			t.Fatalf("node %d still holds %d entries after flush_all", i, l)
		}
		if n.Server().Flushes() != 1 {
			t.Fatalf("node %d flushes = %d, want 1", i, n.Server().Flushes())
		}
	}
	if got := rawBurst(t, routerAddr, "get "+string(keys[1])+"\r\n", 1); string(got) != "END\r\n" {
		t.Fatalf("get after flush_all = %q, want clean miss", got)
	}

	// Single-replica fleet with an ejected node: partial flush is an error.
	ejectOwner(cl, keys[1])
	if got := rawBurst(t, routerAddr, "flush_all\r\n", 1); string(got) != "SERVER_ERROR node down\r\n" {
		t.Fatalf("partial flush_all reply = %q", got)
	}
}

// TestRouterGetsCasEjectedOwner: gets and cas on a dead keyspace answer
// the same deterministic fail-fast line as get and set; a gets burst
// spanning the outage degrades exactly like a get: every surviving
// VALUE block in request order, then SERVER_ERROR instead of END; the
// surviving keyspace keeps swapping; reintegration restores the full
// burst.
func TestRouterGetsCasEjectedOwner(t *testing.T) {
	_, cl, routerAddr := routedCluster(t, 3)
	keys, vals, flags := testCorpus(60)
	loadCorpus(t, routerAddr, keys, vals, flags)

	down := ejectOwner(cl, keys[1]) // keys[1] is a hit (1%3 != 0)
	if got := rawBurst(t, routerAddr, "gets "+string(keys[1])+"\r\n", 1); string(got) != "SERVER_ERROR node down\r\n" {
		t.Fatalf("ejected-owner gets = %q", got)
	}
	if got := rawBurst(t, routerAddr, "cas "+string(keys[1])+" 0 0 1 9\r\nx\r\n", 1); string(got) != "SERVER_ERROR node down\r\n" {
		t.Fatalf("ejected-owner cas = %q", got)
	}

	// Burst spanning the outage: one scatter answers every surviving key,
	// then the terminator flips to SERVER_ERROR.
	var sb strings.Builder
	sb.WriteString("gets")
	for _, k := range keys {
		sb.WriteByte(' ')
		sb.Write(k)
	}
	sb.WriteString("\r\n")
	recs, term := parseGetsReply(t, rawBurst(t, routerAddr, sb.String(), 1))
	if term != "SERVER_ERROR node down" {
		t.Fatalf("spanning gets terminator = %q", term)
	}
	var wantKeys []string
	for _, k := range keys {
		if _, hit := vals[string(k)]; hit && cl.ring.OwnerIndex(k) != down {
			wantKeys = append(wantKeys, string(k))
		}
	}
	if len(recs) != len(wantKeys) {
		t.Fatalf("spanning gets delivered %d VALUE blocks before failing, want %d", len(recs), len(wantKeys))
	}
	for i, r := range recs {
		if r.key != wantKeys[i] || r.val != string(vals[r.key]) || r.flags != flags[r.key] || r.casid == 0 {
			t.Fatalf("surviving VALUE block %d = %+v, want corpus key %s in request order", i, r, wantKeys[i])
		}
	}

	// Reintegrate: the same burst answers every hit and terminates END.
	cl.pools[down].noteSuccess()
	recs, term = parseGetsReply(t, rawBurst(t, routerAddr, sb.String(), 1))
	if term != "END" || len(recs) != len(vals) {
		t.Fatalf("post-reintegration gets: %d VALUE blocks, term %q, want %d and END", len(recs), term, len(vals))
	}

	// And the read-modify-write cycle still works end to end.
	one, term := parseGetsReply(t, rawBurst(t, routerAddr, "gets "+string(keys[1])+"\r\n", 1))
	if term != "END" || len(one) != 1 {
		t.Fatalf("post-reintegration single gets: %v %q", one, term)
	}
	casReq := fmt.Sprintf("cas %s %d 0 3 %d\r\nnew\r\n", keys[1], one[0].flags, one[0].casid)
	if got := rawBurst(t, routerAddr, casReq, 1); string(got) != "STORED\r\n" {
		t.Fatalf("post-reintegration cas = %q", got)
	}
}

// TestRouterStatsMetricsParity: every unlabeled kvcluster counter the
// registry scrapes has a stats-command mirror (kvcluster_<name>_total →
// <name>), so operators see the same fleet truth through memcached
// stats and /metrics. Regression test: writeStats omitted
// replica_unacked while kvcluster_replica_unacked_total was exposed —
// and this fails again whenever a future unlabeled counter lands in
// only one of the two views.
func TestRouterStatsMetricsParity(t *testing.T) {
	_, cl, routerAddr := routedCluster(t, 3)
	c, err := kvproto.DialTimeout(routerAddr, 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cl.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ln := range strings.Split(buf.String(), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		name, _, _ := strings.Cut(ln, " ")
		if strings.Contains(name, "{") {
			// Labeled families (per-node, per-op) surface through their own
			// dedicated stats lines, checked below for the op families.
			continue
		}
		if !strings.HasPrefix(name, "kvcluster_") || !strings.HasSuffix(name, "_total") {
			continue
		}
		statKey := strings.TrimSuffix(strings.TrimPrefix(name, "kvcluster_"), "_total")
		if _, ok := st[statKey]; !ok {
			t.Errorf("metric %s has no %q line in the stats reply", name, statKey)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no unlabeled kvcluster counters found in the exposition; parity check is vacuous")
	}
	// Per-op routed/failed mirrors exist for every op the cluster routes,
	// including gets and cas.
	for _, name := range ixNames {
		for _, k := range []string{"ops_routed_" + name, "ops_failed_" + name} {
			if _, ok := st[k]; !ok {
				t.Errorf("stats reply missing %q", k)
			}
		}
	}
}

// TestClusterProbeEjectsAndReintegrates: the real prober path — kill a
// node, the prober ejects it within a few intervals; restart it, the
// capped-backoff reprobe brings it back.
func TestClusterProbeEjectsAndReintegrates(t *testing.T) {
	f, err := fleet.Start(2, func(int) fleet.NodeConfig { return nodeConfig() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cl, err := New(Config{
		Nodes:           f.Addrs(),
		Seed:            7,
		PoolSize:        2,
		ProbeInterval:   20 * time.Millisecond,
		ProbeBackoffMax: 100 * time.Millisecond,
		Reconnect:       kvproto.ReconnectConfig{DialTimeout: 500 * time.Millisecond, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cl.Start()

	f.Nodes[0].Kill()
	deadline := time.Now().Add(10 * time.Second)
	for !cl.Ejected(0) {
		if time.Now().After(deadline) {
			t.Fatal("killed node never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cl.Ejected(1) {
		t.Fatal("healthy node ejected alongside the killed one")
	}

	if err := f.Nodes[0].Restart(); err != nil {
		t.Fatal(err)
	}
	for cl.Ejected(0) {
		if time.Now().After(deadline) {
			t.Fatal("restarted node never reintegrated")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
