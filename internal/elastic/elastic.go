// Package elastic is the cluster's membership control plane: it takes a
// running coordinator from plan P to plan P' — grow by adding replica
// nodes, shrink by draining them, relieve a hot block group by
// splitting it — without failing a query and without a cell ever
// reading differently than it would have under either plan.
//
// The package drives three migration shapes, all built from the same
// two-phase engine (bulk transfer with ingest flowing, then a short
// cutover under the group's write lock):
//
//   - Replica add (grow): export the latest checkpoint from a live
//     donor of the target block group (CKPTEXPORT), ship it to the
//     empty joining node (SHIPCKPT), let the coordinator replay the WAL
//     tail above the shipped LSN and perform the atomic read cutover
//     (shard.Coordinator.AttachReplica).
//   - Drain (shrink): atomically remove a replica from its group while
//     its peers keep serving (shard.Coordinator.DetachReplica); the
//     drained node serves in-flight reads until the last old-topology
//     snapshot is released.
//   - Split: child nodes announcing sub-blocks that tile a parent block
//     are staged as they join; when the tiling completes, the parent's
//     checkpoint is shipped to every child (each imports only the facts
//     inside its own block), the parent's WAL tail is replayed into the
//     children with densely renumbered child LSNs, and the parent group
//     is atomically replaced (shard.Coordinator.SplitCutover).
//
// Failure anywhere before a cutover is a rollback by construction: no
// serving state was touched, the old owners keep serving, and the plan
// epoch does not move. The engine only counts it (elastic.rollbacks).
package elastic

import (
	"fmt"
	"sync"
	"time"

	"parcube/internal/nd"
	"parcube/internal/obs"
	"parcube/internal/server"
	"parcube/internal/shard"
)

// testHookMidShip, when set, runs after a joining node has received its
// checkpoint but before catch-up and cutover begin — the window where a
// migration-target crash must roll back without touching serving state.
var testHookMidShip func(addr string)

// Options configures a Manager.
type Options struct {
	// Timeout bounds every control-plane RPC (dial, checkpoint export
	// and ship, tail replay). The deadline re-arms per read/write, so a
	// large checkpoint is bounded per chunk, not in total. Default 5s.
	Timeout time.Duration
	// BulkRounds caps the geometric pre-cutover catch-up rounds of a
	// split: each round replays the parent tail that accumulated during
	// the previous round, so the remaining gap shrinks toward the
	// write-pause drain done at cutover. Default 8.
	BulkRounds int
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.BulkRounds <= 0 {
		o.BulkRounds = 8
	}
	return o
}

// Manager executes membership changes against one coordinator. It
// implements server.ElasticController, so a coordinator-mode server
// exposes it as the JOIN/DRAIN/REBALANCE wire commands. Operations are
// serialized: one migration runs at a time, which keeps the cutover
// windows disjoint and the rollback story per-operation.
type Manager struct {
	coord *shard.Coordinator
	opts  Options

	mu sync.Mutex
	// plan is the geometry template for Rebalance: the plan the cluster
	// was launched from, advanced on each successful rebalance. Nil when
	// the manager was built without one (Join/Drain/Split still work).
	plan *shard.Plan
	// roster remembers every node address the control plane has seen,
	// keyed by shard id, so Rebalance can route planner moves to nodes
	// that joined earlier.
	roster map[int]string
	// staged collects split children by parent block rendering until
	// their blocks tile the parent exactly.
	staged map[string][]stagedChild

	migrations      *obs.Counter
	rollbacks       *obs.Counter
	drains          *obs.Counter
	splits          *obs.Counter
	bytesShipped    *obs.Counter
	recordsReplayed *obs.Counter
	groupsMigrating *obs.Gauge
	cutoverNs       *obs.Histogram
}

type stagedChild struct {
	addr  string
	block nd.Block
}

// New builds a manager for coord. plan, when given, seeds the geometry
// template Rebalance plans against; nil reconstructs one from the live
// topology (the coordinator derives its geometry from the shards'
// handshakes, so the template is always recoverable). Metrics register
// in the coordinator's registry, so elastic.* rides the same STATS
// surface as the serving-path counters.
func New(coord *shard.Coordinator, plan *shard.Plan, opts Options) *Manager {
	if plan == nil {
		plan = templateFromTopology(coord)
	}
	reg := coord.Metrics()
	return &Manager{
		coord:  coord,
		opts:   opts.withDefaults(),
		plan:   plan,
		roster: make(map[int]string),
		staged: make(map[string][]stagedChild),

		migrations:      reg.Counter("elastic.migrations"),
		rollbacks:       reg.Counter("elastic.rollbacks"),
		drains:          reg.Counter("elastic.drains"),
		splits:          reg.Counter("elastic.splits"),
		bytesShipped:    reg.Counter("elastic.bytes_shipped"),
		recordsReplayed: reg.Counter("elastic.records_replayed"),
		groupsMigrating: reg.Gauge("elastic.groups_migrating"),
		cutoverNs:       reg.Histogram("elastic.cutover_ns"),
	}
}

// templateFromTopology reconstructs a geometry template from the live
// topology: block geometry and schema from what the cluster serves,
// replication from the thinnest group.
func templateFromTopology(coord *shard.Coordinator) *shard.Plan {
	names, sizes := coord.SchemaDims()
	p := &shard.Plan{
		Names: append([]string(nil), names...),
		Sizes: nd.Shape(sizes),
		Epoch: coord.PlanEpoch(),
	}
	ids := make(map[int]bool)
	for _, g := range coord.Groups() {
		p.Blocks = append(p.Blocks, g.Block)
		p.Owners = append(p.Owners, append([]int(nil), g.IDs...))
		for _, id := range g.IDs {
			ids[id] = true
		}
		if p.Replicas == 0 || len(g.IDs) < p.Replicas {
			p.Replicas = len(g.IDs)
		}
	}
	p.Nodes = len(ids)
	return p
}

// dial opens a bounded control-plane connection.
func (m *Manager) dial(addr string) (*server.Client, error) {
	cl, err := server.DialTimeout(addr, m.opts.Timeout)
	if err != nil {
		return nil, fmt.Errorf("elastic: dialing %s: %w", addr, err)
	}
	cl.SetTimeout(m.opts.Timeout)
	return cl, nil
}

// describe handshakes addr and returns its announced identity.
func (m *Manager) describe(addr string) (id int, block nd.Block, durable bool, err error) {
	cl, err := m.dial(addr)
	if err != nil {
		return 0, nd.Block{}, false, err
	}
	defer cl.Close()
	info, err := cl.ShardInfo()
	if err != nil {
		return 0, nd.Block{}, false, fmt.Errorf("elastic: handshake with %s: %w", addr, err)
	}
	block, err = shard.ParseBlock(info["block"])
	if err != nil {
		return 0, nd.Block{}, false, fmt.Errorf("elastic: %s: %w", addr, err)
	}
	if _, err := fmt.Sscanf(info["id"], "%d", &id); err != nil {
		return 0, nd.Block{}, false, fmt.Errorf("elastic: %s announced malformed shard id %q", addr, info["id"])
	}
	_, durable = info["lsn"]
	return id, block, durable, nil
}

// Join admits the node at addr into the cluster. A node announcing a
// block the topology already serves becomes a new replica of that group
// (checkpoint ship, WAL catch-up, atomic cutover). A node announcing a
// strict sub-block of a served block is staged as a split child; the
// split executes the moment the staged children tile the parent
// exactly, so growing by splitting is just starting the child nodes and
// joining each one. Implements server.ElasticController.
func (m *Manager) Join(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	id, block, durable, err := m.describe(addr)
	if err != nil {
		return err
	}
	if !durable {
		return fmt.Errorf("elastic: %s is not durable; only durable nodes can join", addr)
	}
	m.roster[id] = addr

	if b := m.coord.GroupIndexByBlock(block.String()); b >= 0 {
		return m.migrateInto(b, addr)
	}

	// Not a served block: a strict sub-block of exactly one group stages
	// a split child.
	for _, g := range m.coord.Groups() {
		if blockInside(block, g.Block) {
			return m.stageChild(g.Block, addr, block)
		}
	}
	return fmt.Errorf("elastic: %s serves block %s, which neither matches nor fits inside any served block", addr, block)
}

// migrateInto runs the replica-add migration of addr into group b.
// Caller holds m.mu.
func (m *Manager) migrateInto(b int, addr string) error {
	m.groupsMigrating.Set(1)
	defer m.groupsMigrating.Set(0)

	srcAddr, err := m.coord.LiveAddr(b)
	if err != nil {
		return err
	}
	lsn, state, err := m.exportFrom(srcAddr)
	if err != nil {
		return err
	}
	if err := m.shipTo(addr, lsn, state); err != nil {
		return err
	}
	if testHookMidShip != nil {
		testHookMidShip(addr)
	}
	// Cloned and shipped; catch-up and cutover belong to the
	// coordinator. Any failure from here rolls back by never having
	// touched the group: old owners serve on, epoch unmoved.
	cutover, err := m.coord.AttachReplica(b, addr)
	if err != nil {
		m.rollbacks.Inc()
		return fmt.Errorf("elastic: migration of %s into group %d rolled back: %w", addr, b, err)
	}
	m.cutoverNs.Observe(cutover.Nanoseconds())
	m.migrations.Inc()
	return nil
}

// exportFrom pulls the latest checkpoint from a live donor.
func (m *Manager) exportFrom(addr string) (uint64, []byte, error) {
	cl, err := m.dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	lsn, state, err := cl.CkptExport()
	if err != nil {
		return 0, nil, fmt.Errorf("elastic: exporting checkpoint from %s: %w", addr, err)
	}
	return lsn, state, nil
}

// shipTo delivers a checkpoint to a joining node.
func (m *Manager) shipTo(addr string, lsn uint64, state []byte) error {
	cl, err := m.dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.ShipCkpt(lsn, state); err != nil {
		return fmt.Errorf("elastic: shipping checkpoint to %s: %w", addr, err)
	}
	m.bytesShipped.Add(int64(len(state)))
	return nil
}

// Drain removes the node at addr from every group it serves — the
// whole-node shrink operation. The node keeps serving reads already in
// flight on older topology snapshots; once the coordinator closes, its
// retired pools are released. Implements server.ElasticController.
func (m *Manager) Drain(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drainLocked(addr)
}

func (m *Manager) drainLocked(addr string) error {
	found := false
	for _, g := range m.coord.Groups() {
		member := false
		for _, a := range g.Addrs {
			if a == addr {
				member = true
				break
			}
		}
		if !member {
			continue
		}
		if err := m.coord.DetachReplica(g.Index, addr); err != nil {
			return fmt.Errorf("elastic: draining %s from block %s: %w", addr, g.Block, err)
		}
		found = true
	}
	if !found {
		return fmt.Errorf("elastic: %s serves no block group", addr)
	}
	m.drains.Inc()
	return nil
}

// Rebalance re-runs the Theorem 8 ownership assignment over a new node
// count and executes the minimal migration set taking the cluster
// there: added replicas migrate in (their nodes must have announced
// themselves via Join, or already be members), removed replicas drain.
// Returns the number of planner moves executed. Implements
// server.ElasticController.
func (m *Manager) Rebalance(nodes int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebalanceLocked(nodes)
}

// RebalanceAuto re-runs the planner over the nodes currently serving —
// the periodic convergence pass behind cubeshard -rebalance-every. It
// only acts when the live shard ids form a contiguous [0,n) range (the
// planner deals ownership by node id, so a hole would re-add a drained
// node); otherwise it reports zero moves and leaves placement alone.
func (m *Manager) RebalanceAuto() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make(map[int]bool)
	for _, g := range m.coord.Groups() {
		for _, id := range g.IDs {
			ids[id] = true
		}
	}
	for id := range ids {
		if id < 0 || id >= len(ids) {
			return 0, nil
		}
	}
	return m.rebalanceLocked(len(ids))
}

func (m *Manager) rebalanceLocked(nodes int) (int, error) {
	cur, idToAddr, err := m.currentPlanLocked()
	if err != nil {
		return 0, err
	}
	next, moves, err := cur.Rebalance(nodes)
	if err != nil {
		return 0, err
	}

	// Resolve every move to an address before executing any, so a
	// half-known node set fails the whole rebalance instead of leaving
	// it half-applied.
	type action struct {
		kind shard.MoveKind
		b    int
		addr string
	}
	var actions []action
	for _, mv := range moves {
		for _, n := range mv.Nodes {
			addr, ok := idToAddr[n]
			if !ok {
				addr, ok = m.roster[n]
			}
			if !ok {
				return 0, fmt.Errorf("elastic: rebalance to %d nodes needs node %d, which has not announced itself (start it and JOIN it first)", nodes, n)
			}
			actions = append(actions, action{kind: mv.Kind, b: mv.Block, addr: addr})
		}
	}
	for _, a := range actions {
		switch a.kind {
		case shard.MoveAddReplica:
			if err := m.migrateInto(a.b, a.addr); err != nil {
				return 0, err
			}
		case shard.MoveDrain:
			if err := m.coord.DetachReplica(a.b, a.addr); err != nil {
				return 0, err
			}
			m.drains.Inc()
		}
	}
	m.plan = next
	return len(moves), nil
}

// currentPlanLocked reconstructs the serving plan from live membership
// over the template's geometry, so Rebalance diffs against what the
// cluster actually serves rather than a possibly stale template. It
// refuses to plan after a split changed the block set — the template
// geometry no longer describes the topology.
func (m *Manager) currentPlanLocked() (*shard.Plan, map[int]string, error) {
	groups := m.coord.Groups()
	byBlock := make(map[string]shard.GroupStatus, len(groups))
	for _, g := range groups {
		byBlock[g.Block.String()] = g
	}
	cur := &shard.Plan{
		Names:    append([]string(nil), m.plan.Names...),
		Sizes:    m.plan.Sizes,
		K:        append([]int(nil), m.plan.K...),
		Parts:    append([]int(nil), m.plan.Parts...),
		Blocks:   append([]nd.Block(nil), m.plan.Blocks...),
		Replicas: m.plan.Replicas,
		Epoch:    m.coord.PlanEpoch(),
	}
	idToAddr := make(map[int]string)
	cur.Owners = make([][]int, len(cur.Blocks))
	seen := 0
	for b, blk := range cur.Blocks {
		g, ok := byBlock[blk.String()]
		if !ok {
			return nil, nil, fmt.Errorf("elastic: plan block %s is no longer served (split?); rebalance needs a fresh plan template", blk)
		}
		cur.Owners[b] = append([]int(nil), g.IDs...)
		for i, id := range g.IDs {
			idToAddr[id] = g.Addrs[i]
			if id+1 > seen {
				seen = id + 1
			}
		}
	}
	if len(byBlock) != len(cur.Blocks) {
		return nil, nil, fmt.Errorf("elastic: topology serves %d blocks, plan template has %d; rebalance needs a fresh plan template", len(byBlock), len(cur.Blocks))
	}
	cur.Nodes = seen
	return cur, idToAddr, nil
}

// stageChild records a split child and fires the split once the staged
// children tile the parent exactly. Caller holds m.mu.
func (m *Manager) stageChild(parent nd.Block, addr string, block nd.Block) error {
	key := parent.String()
	staged := m.staged[key]
	// A re-join of the same address replaces its stale entry.
	kept := staged[:0]
	for _, ch := range staged {
		if ch.addr != addr {
			kept = append(kept, ch)
		}
	}
	for _, ch := range kept {
		if ch.block.String() != block.String() && blocksOverlap(ch.block, block) {
			return fmt.Errorf("elastic: split child %s (block %s) overlaps staged child %s (block %s)",
				addr, block, ch.addr, ch.block)
		}
	}
	staged = append(kept, stagedChild{addr: addr, block: block})
	m.staged[key] = staged

	covered := 0
	blocks := make(map[string]bool)
	for _, ch := range staged {
		if !blocks[ch.block.String()] {
			blocks[ch.block.String()] = true
			covered += ch.block.Size()
		}
	}
	if covered < parent.Size() {
		return nil // staged; waiting for the siblings that complete the tiling
	}
	err := m.splitLocked(key, staged)
	if err == nil {
		delete(m.staged, key)
	}
	return err
}

// Split relieves the hot block group b by halving its block along the
// widest dimension (the cut the greedy partitioner would add next) and
// migrating the halves onto the nodes at childAddrs, which must
// announce exactly those child blocks. Join reaches the same engine
// implicitly when staged children tile a parent; Split is the explicit
// operator form.
func (m *Manager) Split(b int, childAddrs []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	groups := m.coord.Groups()
	if b < 0 || b >= len(groups) {
		return fmt.Errorf("elastic: block group %d out of range [0,%d)", b, len(groups))
	}
	parent := groups[b]
	var staged []stagedChild
	for _, addr := range childAddrs {
		_, block, durable, err := m.describe(addr)
		if err != nil {
			return err
		}
		if !durable {
			return fmt.Errorf("elastic: split child %s is not durable", addr)
		}
		if !blockInside(block, parent.Block) {
			return fmt.Errorf("elastic: %s serves block %s, outside parent %s", addr, block, parent.Block)
		}
		staged = append(staged, stagedChild{addr: addr, block: block})
	}
	return m.splitLocked(parent.Block.String(), staged)
}

// childRepl is one split child mid-migration: its replay client, and
// the dense child-LSN cursor that renumbers the parent's tail.
type childRepl struct {
	addr  string
	block nd.Block
	cl    *server.Client
	// lsn is the child's last assigned LSN: the shipped checkpoint LSN
	// plus one per non-empty filtered record replayed so far. Dense
	// renumbering — a parent record whose rows all fall outside this
	// child's block assigns no child LSN at all.
	lsn uint64
}

// splitLocked runs the split migration engine: ship the parent
// checkpoint to every child, replay the parent WAL tail with geometric
// rounds while ingest keeps flowing, then hand the final drain to
// SplitCutover under the parent's write lock. Caller holds m.mu.
func (m *Manager) splitLocked(parentKey string, children []stagedChild) (err error) {
	b := m.coord.GroupIndexByBlock(parentKey)
	if b < 0 {
		return fmt.Errorf("elastic: parent block %s is no longer served", parentKey)
	}
	m.groupsMigrating.Set(int64(len(children)))
	defer m.groupsMigrating.Set(0)
	defer func() {
		if err != nil {
			m.rollbacks.Inc()
		}
	}()

	srcAddr, err := m.coord.LiveAddr(b)
	if err != nil {
		return err
	}
	src, err := m.dial(srcAddr)
	if err != nil {
		return err
	}
	defer src.Close()
	lsn, state, err := src.CkptExport()
	if err != nil {
		return fmt.Errorf("elastic: exporting checkpoint from %s: %w", srcAddr, err)
	}

	// Ship: every child imports the same parent state, keeping only the
	// facts inside its own block.
	reps := make([]*childRepl, 0, len(children))
	defer func() {
		for _, ch := range reps {
			_ = ch.cl.Close()
		}
	}()
	addrs := make([]string, 0, len(children))
	for _, ch := range children {
		if err := m.shipTo(ch.addr, lsn, state); err != nil {
			return err
		}
		if testHookMidShip != nil {
			testHookMidShip(ch.addr)
		}
		cl, err := m.dial(ch.addr)
		if err != nil {
			return err
		}
		reps = append(reps, &childRepl{addr: ch.addr, block: ch.block, cl: cl, lsn: lsn})
		addrs = append(addrs, ch.addr)
	}

	// Bulk catch-up with ingest flowing: each round replays the tail
	// that accumulated during the previous round, so the gap the
	// write-pause drain must close shrinks geometrically.
	applied := lsn
	for round := 0; round < m.opts.BulkRounds; round++ {
		n, err := m.replayRound(src, reps, &applied)
		if err != nil {
			return fmt.Errorf("elastic: replaying parent tail: %w", err)
		}
		if n == 0 {
			break
		}
	}

	// Cutover: the coordinator pauses the parent's ingest and calls back
	// to drain the last records; after it returns, the children own the
	// key space and the parent group is retired.
	err = m.coord.SplitCutover(b, addrs, func(parentLSN uint64) error {
		for applied < parentLSN {
			n, err := m.replayRound(src, reps, &applied)
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("elastic: parent log ends at %d, group high-water mark is %d (tail trimmed?)", applied, parentLSN)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.splits.Inc()
	m.migrations.Add(int64(len(children)))
	return nil
}

// replayRound fetches the parent's durable tail past applied, routes
// each record's rows to the child whose block contains them, assigning
// dense child LSNs, and replays each child's share of the window as
// DELTABATCH runs — a log write and an fsync per run, not per record.
// Returns the number of parent records consumed.
//
//cubelint:ignore lsn-discipline split replay renumbers the parent tail into dense child LSNs by design; each child's WAL still checks the positions densely on its DELTABATCH path
func (m *Manager) replayRound(src *server.Client, children []*childRepl, applied *uint64) (int, error) {
	tail, err := src.DeltasSince(*applied)
	if err != nil || len(tail) == 0 {
		return 0, err
	}
	for _, ch := range children {
		var run []server.LoggedDelta
		for _, rec := range tail {
			var rows []server.Row
			for _, row := range rec.Rows {
				if ch.block.Contains(row.Coords) {
					rows = append(rows, row)
				}
			}
			if len(rows) > 0 {
				run = append(run, server.LoggedDelta{LSN: ch.lsn + 1 + uint64(len(run)), Rows: rows})
			}
		}
		if len(run) == 0 {
			continue
		}
		if _, _, err := ch.cl.Replay(run); err != nil {
			return 0, fmt.Errorf("replaying records %d..%d into %s: %w", tail[0].LSN, tail[len(tail)-1].LSN, ch.addr, err)
		}
		ch.lsn += uint64(len(run))
	}
	*applied = tail[len(tail)-1].LSN
	m.recordsReplayed.Add(int64(len(tail)))
	return len(tail), nil
}

// blockInside reports whether inner lies within outer (same rank,
// bounds contained). Equal blocks are inside too; callers that need
// strictness check identity first.
func blockInside(inner, outer nd.Block) bool {
	if inner.Rank() != outer.Rank() {
		return false
	}
	for j := range inner.Lo {
		if inner.Lo[j] < outer.Lo[j] || inner.Hi[j] > outer.Hi[j] {
			return false
		}
	}
	return true
}

// blocksOverlap reports whether two blocks share any cell.
func blocksOverlap(a, b nd.Block) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for j := range a.Lo {
		if a.Hi[j] <= b.Lo[j] || b.Hi[j] <= a.Lo[j] {
			return false
		}
	}
	return true
}
