package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Work-stealing stage dispatch. The replica executing a pipeline run
// installs TraceStage as core.RunOptions.TraceStage, so every
// per-(year, replica) trace stage that misses the stage cache becomes a
// dispatch decision: run it here, or ship (cfg, year, rep) to the
// least-loaded healthy peer and stream the resulting table back. The
// hook only picks where a stage runs; core's stage cache, which wraps
// it, is the only place a stage output is looked up or stored. The
// stage graph itself is untouched — repTables slots and the fixed
// year/replica/shard merge order make reassembly deterministic no
// matter which mix of local and remote executions filled them — and
// every remote fault degrades to local recompute, so distribution can
// only ever change latency, not bytes.

// TraceStage computes one (year, rep) trace stage, remotely when a
// peer has spare capacity, otherwise by calling local, the in-process
// generator. It satisfies core.RunOptions.TraceStage.
func (c *Cluster) TraceStage(ctx context.Context, cfg core.Config, year, rep int, local func() (trace.JobTable, error)) (trace.JobTable, error) {
	target := c.stealTarget()
	if target == nil {
		return c.localStage(local)
	}
	stage := core.TraceStageName(year, rep)
	target.inflight.Add(1)
	start := c.now()
	tab, err := c.remoteStage(ctx, target.name, cfg, year, rep)
	target.inflight.Add(-1)
	if err == nil {
		c.reportSuccess(target)
		c.steals.With("remote").Inc()
		c.stealSeconds.Observe(c.now().Sub(start).Seconds())
		return tab, nil
	}
	// Degraded path: the steal failed (transport, auth, integrity, or a
	// peer-side error). Note the failure on the peer's breaker and
	// recompute locally — identical bytes, only later.
	c.reportFailure(target, err)
	c.steals.With("fallback").Inc()
	rerr := &RemoteStageError{Peer: target.name, Stage: stage, Attempt: 1, Err: err}
	tab, lerr := c.localStage(local)
	if lerr != nil {
		return nil, fmt.Errorf("local recompute failed: %w; after remote failure: %w", lerr, rerr)
	}
	return tab, nil
}

// localStage runs the stage in-process, tracking self load so the
// target choice sees local work too.
func (c *Cluster) localStage(local func() (trace.JobTable, error)) (trace.JobTable, error) {
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)
	c.steals.With("local").Inc()
	return local()
}

// remoteStage ships one stage to peer. Execution knobs are stripped
// from the wire config: worker counts, batch sizes, and spill paths
// are local concerns (artifact bytes are invariant to them, pinned by
// the shard/batch equivalence tests), and a requester's spill
// directory is meaningless on another machine. The thief's ring epoch
// rides along so a steal that straddles a membership change is visible
// on the serving side's mismatch counter.
func (c *Cluster) remoteStage(ctx context.Context, peer string, cfg core.Config, year, rep int) (trace.JobTable, error) {
	wire := cfg
	wire.Workers = 0
	wire.Table = core.TableConfig{}
	sctx, cancel := context.WithTimeout(ctx, c.opts.FillTimeout)
	defer cancel()
	return c.client.postStage(sctx, peer, StageRequest{Config: wire, Year: year, Rep: rep, Epoch: c.EpochHex()})
}

// stealTarget picks where the next stage should run: the candidate
// with the fewest outstanding stages among self and every alive,
// breaker-admitted member. Nil means "run it locally" — either self is
// least loaded or no peer is usable. Ties prefer self (no network is
// always cheaper than some network). The member walk is the live ring
// view, so a replica that joined five seconds ago is already a steal
// candidate and a suspect is already excluded.
func (c *Cluster) stealTarget() *peerState {
	var best *peerState
	bestLoad := c.selfInflight.Load()
	for _, name := range c.Members() {
		if name == c.self || !c.healthyPeer(name) {
			continue
		}
		p := c.peerStateFor(name)
		if !p.allow(c.now()) {
			continue
		}
		if load := p.inflight.Load(); load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}
