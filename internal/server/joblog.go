package server

import "time"

// The job log is the serving layer's write-ahead log: a durable.Log of
// JSON records (fault sites joblog.read, joblog.append and
// joblog.append.write) recording every job's lifecycle transitions —
// accepted (with tenant, spec and idempotency key), started, finished
// (with the terminal state and, for done jobs, the rendered artifacts).
// It makes the jobs themselves — accepted work the server said 202 to —
// survive a crash, as the disk cache's summary segment does for
// computed values.
//
// Durability contract, in write order:
//
//   - The accepted record is appended and fsynced BEFORE the 202 leaves
//     the server. If the append fails (dying disk, injected fault), the
//     submission is refused with 503 and the client retries — so there
//     is never a job a client believes accepted that a restart forgets.
//   - started/finished appends are best-effort: losing one only means a
//     restart re-runs the job, and the engine's content-addressed cache
//     plus byte-determinism make a re-run a cheap, invisible replay.
//
// Replay is order-insensitive per job (records merge by ID), so the
// accepted/started interleavings a busy runner produces are all legal.
// On startup the log is compacted to the restored live state, bounding
// growth across restarts.

// Job-log record kinds.
const (
	jlAccepted = "accepted"
	jlStarted  = "started"
	jlFinished = "finished"
)

// maxJobLogPayload bounds one framed record (a finished record carries a
// job's rendered artifacts).
const maxJobLogPayload = 16 << 20

// jlRecord is one job transition on disk.
type jlRecord struct {
	Kind        string
	ID          string
	Tenant      string           `json:",omitempty"`
	Spec        *Spec            `json:",omitempty"`
	IdemKey     string           `json:",omitempty"`
	SubmittedAt time.Time        `json:",omitempty"`
	State       State            `json:",omitempty"`
	Artifacts   []ResultArtifact `json:",omitempty"`
	Err         string           `json:",omitempty"`
}

// acceptedRecord builds the write-ahead record for a freshly admitted
// job.
func acceptedRecord(j *Job) jlRecord {
	sp := j.Spec
	return jlRecord{
		Kind:        jlAccepted,
		ID:          j.ID,
		Tenant:      sp.Tenant,
		Spec:        &sp,
		IdemKey:     j.idemKey,
		SubmittedAt: j.submitted,
	}
}

// jlJob is one job's merged log state during replay.
type jlJob struct {
	rec      jlRecord // the accepted record (spec, tenant, idem key)
	accepted bool
	started  bool
	finished bool
	state    State
	arts     []ResultArtifact
	errMsg   string
}

// mergeRecords folds a replayed record stream into per-job state,
// preserving first-appearance order. Records for IDs that never get an
// accepted record carry no spec and are dropped.
func mergeRecords(recs []jlRecord) (order []string, jobs map[string]*jlJob) {
	jobs = map[string]*jlJob{}
	for _, rec := range recs {
		jj := jobs[rec.ID]
		if jj == nil {
			jj = &jlJob{}
			jobs[rec.ID] = jj
			order = append(order, rec.ID)
		}
		switch rec.Kind {
		case jlAccepted:
			if rec.Spec != nil {
				jj.rec = rec
				jj.accepted = true
			}
		case jlStarted:
			jj.started = true
		case jlFinished:
			if rec.State.terminal() {
				jj.finished = true
				jj.state = rec.State
				jj.arts = rec.Artifacts
				jj.errMsg = rec.Err
			}
		}
	}
	return order, jobs
}
