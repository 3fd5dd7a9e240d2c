package machine

// This file is the machine's single reference issue loop: a per-cycle
// full scan over every window entry of every cluster, with lazily cached
// readiness, live gshare training and the SteerPolicy interface — no
// cycle skipping, no packed state, no kernels, no profiles. The packed
// engine (fusedissue.go), which every production run uses, is gated
// against it: the committed goldens are generated with it (go test -run
// Golden -update-goldens ./internal/machine), and the differential tests
// (oracle_test.go, variants_test.go, parallel_test.go, property_test.go
// and FuzzSimulateVariants) require identical
// Events timelines and Results on random and benchmark traces. It is
// selected with UseOracleIssue and is deliberately left untouched by
// performance work.

// issueScan is the reference issue phase: scan all entries, cache
// readiness the first cycle it becomes computable, collect ready-now
// entries, and hand them to the shared selection function.
func (m *Machine) issueScan() {
	m.candBuf = m.candBuf[:0]
	for c := range m.clusters {
		m.readyCount[c] = 0
		entries := m.clusters[c].entries
		for i := range entries {
			e := &entries[i]
			if e.ready == Unset {
				ready, crit, remote := m.readyAt(e.seq)
				if ready == Unset {
					continue
				}
				e.ready, e.crit, e.remote = ready, crit, remote
			}
			if e.ready > m.cycle {
				continue
			}
			m.readyCount[c]++
			m.candBuf = append(m.candBuf, candidate{
				seq: e.seq, cluster: c, prio: e.prio,
				ready: e.ready, crit: e.crit, remote: e.remote,
			})
		}
	}
	if m.issueSelect() > 0 {
		// Remove issued entries from their windows.
		for c := range m.clusters {
			entries := m.clusters[c].entries
			kept := entries[:0]
			for _, e := range entries {
				if m.events[e.seq].Issue == Unset {
					kept = append(kept, e)
				}
			}
			m.clusters[c].entries = kept
		}
	}
}
