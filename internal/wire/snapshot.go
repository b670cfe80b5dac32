package wire

// Gateway snapshot/restore, wire form. The engine snapshots absolute
// times on its own clock; a daemon restart has no shared clock with its
// predecessor, so the on-disk form adds the wall-clock instant the
// snapshot was taken. Restore rebases every time onto the successor's
// clock and charges the downtime, so a filter granted until deadline D
// before the crash still expires at D after it — no early expiry, no
// immortal filters.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"aitf/internal/core"
	"aitf/internal/sim"
)

// diskSnapshotVersion guards the on-disk schema.
const diskSnapshotVersion = 2

// DiskSnapshot is the wire gateway's durable state as written to
// SnapshotPath on drain and restored on boot: the engine's snapshot,
// whose TakenAt is the writer's monotonic clock, dated in wall time.
type DiskSnapshot struct {
	Version int    `json:"version"`
	Node    string `json:"node"`
	// TakenAtUnixNs dates the snapshot so restore can charge the
	// downtime against every deadline.
	TakenAtUnixNs int64 `json:"taken_at_unix_ns"`
	core.GatewaySnapshot
}

// Snapshot captures the gateway's durable state. Safe to call on a
// running gateway; Close calls it after the socket has drained.
func (g *Gateway) Snapshot() *DiskSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &DiskSnapshot{
		Version:         diskSnapshotVersion,
		Node:            g.node.Name(),
		TakenAtUnixNs:   time.Now().UnixNano(),
		GatewaySnapshot: *g.core.Snapshot(),
	}
}

// Restore rebuilds snapshotted state into this gateway. It rebases
// snap's times in place onto this process's clock, charging the
// downtime since the snapshot was taken, then hands it to the engine:
// entries whose deadlines lapsed while the daemon was down stay gone,
// and lapsed pending handshakes resolve as failed so the accounting
// ledger still balances. Call before Run.
func (g *Gateway) Restore(snap *DiskSnapshot) error {
	if snap.Version != diskSnapshotVersion {
		return fmt.Errorf("wire: snapshot version %d, want %d", snap.Version, diskSnapshotVersion)
	}
	downtime := max(time.Since(time.Unix(0, snap.TakenAtUnixNs)), 0)
	g.mu.Lock()
	defer g.mu.Unlock()
	snap.Shift(wallNow() - snap.TakenAt - sim.Time(downtime))
	g.core.Restore(&snap.GatewaySnapshot)
	dp := g.core.DataPlane()
	g.filtersRestored.Add(uint64(dp.Len()))
	g.shadowsRestored.Add(uint64(dp.ShadowLen()))
	g.snapshotRestores.Add(1)
	return nil
}

// SaveToDisk writes the snapshot to the configured SnapshotPath
// atomically (temp file + rename), so a crash mid-write never corrupts
// the previous snapshot.
func (g *Gateway) SaveToDisk() error {
	path := g.cfg.SnapshotPath
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(g.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("wire: marshal snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("wire: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wire: write snapshot: %w", err)
	}
	g.snapshotSaves.Add(1)
	return nil
}

// RestoreFromDisk restores the gateway from the configured
// SnapshotPath if the file exists, reporting the loaded snapshot (nil
// when there was none). Call before Run.
func (g *Gateway) RestoreFromDisk() (*DiskSnapshot, error) {
	path := g.cfg.SnapshotPath
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wire: read snapshot: %w", err)
	}
	var snap DiskSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("wire: parse snapshot %s: %w", path, err)
	}
	if err := g.Restore(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
