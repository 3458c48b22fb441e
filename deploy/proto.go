package deploy

import (
	"encoding/json"
	"io"
	"sync"

	"fsnewtop/transport/tcpnet"
)

// Control message types, in lifecycle order. The protocol is strictly
// request/response-free: each side writes messages as its state machine
// advances, and unknown types are ignored (forward compatibility between
// a controller and workers built from slightly different trees is not a
// supported configuration, but it must degrade to a timeout with a named
// phase, not a parse crash).
const (
	// msgHello (worker → controller) reports the worker's listen endpoint
	// and PID, immediately after binding.
	msgHello = "hello"
	// msgConfigure (controller → worker) assigns the member name and
	// ships the roster, placement manifest and run spec.
	msgConfigure = "configure"
	// msgReady (worker → controller) acknowledges configure: the member
	// is built and its address book seeded.
	msgReady = "ready"
	// msgJoin (controller → worker) starts group formation.
	msgJoin = "join"
	// msgJoined (worker → controller) acknowledges the join call.
	msgJoined = "joined"
	// msgRun (controller → worker) starts the workload.
	msgRun = "run"
	// msgProgress (worker → controller) reports the delivery count — the
	// pulse the controller's stall watchdog monitors.
	msgProgress = "progress"
	// msgDone (worker → controller) reports the workload finished, with
	// the worker's measurements.
	msgDone = "done"
	// msgDump (controller → worker) requests a protocol trace dump
	// (stall or failure post-mortem collection).
	msgDump = "dump"
	// msgDumped (worker → controller) reports the dump's path.
	msgDumped = "dumped"
	// msgShutdown (controller → worker) requests a clean exit.
	msgShutdown = "shutdown"
	// msgError (worker → controller) reports a fatal worker-side error;
	// the worker exits right after sending it.
	msgError = "error"
)

// Msg is the control protocol's single envelope: one JSON object per
// line, Type selecting which of the optional fields are meaningful.
type Msg struct {
	Type string `json:"type"`
	// Endpoint and PID accompany hello.
	Endpoint string `json:"endpoint,omitempty"`
	PID      int    `json:"pid,omitempty"`
	// Member names the worker's member (assigned by configure; echoed on
	// every worker → controller message after that).
	Member string `json:"member,omitempty"`
	// Roster and Manifest accompany configure: the full membership (same
	// order at every worker) and the placement manifest expanding each
	// member into its transport addresses and endpoint.
	Roster   []string           `json:"roster,omitempty"`
	Manifest []tcpnet.PeerEntry `json:"manifest,omitempty"`
	// Spec accompanies configure.
	Spec *RunSpec `json:"spec,omitempty"`
	// Delivered accompanies progress.
	Delivered int `json:"delivered,omitempty"`
	// Stats accompanies done.
	Stats *WorkerStats `json:"stats,omitempty"`
	// Path accompanies dumped.
	Path string `json:"path,omitempty"`
	// Error accompanies error (and a failed dumped).
	Error string `json:"error,omitempty"`
}

// msgWriter serialises control messages onto one stream. The mutex makes
// it safe for the worker's observer pass (progress) and main loop (ready,
// joined, done, dumped) to share the same stdout.
type msgWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newMsgWriter(w io.Writer) *msgWriter {
	return &msgWriter{enc: json.NewEncoder(w)}
}

// send writes one message (json.Encoder appends the newline delimiter).
func (w *msgWriter) send(m Msg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(m)
}

// readMsgs decodes newline-delimited messages off r, handing each to
// emit, until EOF or a decode error. It returns io.EOF on a clean close.
func readMsgs(r io.Reader, emit func(Msg)) error {
	dec := json.NewDecoder(r)
	for {
		var m Msg
		if err := dec.Decode(&m); err != nil {
			return err
		}
		emit(m)
	}
}
