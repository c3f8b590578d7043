package core

// Stage-output payload codecs for the Merkle stage cache (see
// stagecache.go). Each cacheable stage kind serializes its output into
// a small versioned payload: table-valued stages reuse the checksummed
// "rcpt-col/1" stream envelope internal/table already defines, and
// value-shaped outputs (quality reports, raking results, panel members,
// telemetry aggregates, simulation results) get hand-rolled encodings
// over the same Writer/Reader primitives the column codecs use.
//
// The payload's leading magic names its kind and version. The cache key
// already commits to a version tag, so a magic mismatch should be
// unreachable; it exists as defense in depth — a payload that decodes
// under the wrong kind would corrupt artifacts, and the contract here
// is that a bad payload may only ever cost a recompute. Decoders
// therefore validate structure (lengths, counts, reader state) and
// return errors; they never trust a field they can check.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/modlog"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/weighting"
)

// Payload kind magics, one per stage-output shape.
const (
	payloadCohort    = "rcpt-stage-cohort/1"
	payloadRake      = "rcpt-stage-rake/1"
	payloadPanel     = "rcpt-stage-panel/1"
	payloadResponses = "rcpt-stage-responses/1"
	payloadJobs      = "rcpt-stage-jobs/1"
	payloadEvents    = "rcpt-stage-events/1"
	payloadModAgg    = "rcpt-stage-modagg/1"
	payloadSim       = "rcpt-stage-sim/1"
)

// checkMagic consumes and verifies the payload's kind marker.
func checkMagic(r *table.Reader, want string) error {
	got := r.String()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: stage payload magic: %w", err)
	}
	if got != want {
		return fmt.Errorf("core: stage payload kind %q, want %q", got, want)
	}
	return nil
}

// payloadReader reads one in-memory stage payload. It knows how many
// bytes are left, so a count can be checked before anything is sized
// by it: items of minBytes wire bytes each cannot number more than the
// remaining bytes hold, and a larger count can only be a damaged or
// hostile payload. Decoders presize from checked counts only, so what
// they allocate stays within a small multiple of the payload's length.
type payloadReader struct {
	*table.Reader
	src *bytes.Reader
}

func newPayloadReader(payload []byte) *payloadReader {
	src := bytes.NewReader(payload)
	return &payloadReader{Reader: table.NewReader(src), src: src}
}

// count reads a length prefix for items of at least minBytes each.
func (r *payloadReader) count(what string, minBytes int) (int, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("core: stage payload %s count: %w", what, err)
	}
	if left := r.src.Len(); n > uint64(left/minBytes) {
		return 0, fmt.Errorf("core: stage payload %s count %d exceeds the %d bytes left", what, n, left)
	}
	return int(n), nil
}

// encodeTableBlock frames a whole table as one rcpt-col/1 stream
// envelope carried as a length-prefixed block, so table payloads can
// embed in larger payloads without the stream decoder's buffering
// swallowing trailing fields.
func encodeTableBlock[T any](w *table.Writer, codec table.Codec[T], tab table.Table[T]) error {
	var block bytes.Buffer
	if err := table.EncodeStream[T](&block, codec, tab); err != nil {
		return err
	}
	w.String(block.String())
	return w.Err()
}

// decodeTableBlock reverses encodeTableBlock into a resident table.
func decodeTableBlock[T any](r *table.Reader, codec table.Codec[T]) (table.Table[T], error) {
	block := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: stage payload table block: %w", err)
	}
	return table.DecodeStream[T](strings.NewReader(block), codec)
}

// --- generic table payloads (trace replicas, cohort tables, telemetry) ---

func encodeTablePayload[T any](magic string, codec table.Codec[T], tab table.Table[T]) ([]byte, error) {
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(magic)
	if err := encodeTableBlock(w, codec, tab); err != nil {
		return nil, err
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeTablePayload[T any](magic string, codec table.Codec[T], payload []byte) (table.Table[T], error) {
	r := table.NewReader(bytes.NewReader(payload))
	if err := checkMagic(r, magic); err != nil {
		return nil, err
	}
	return decodeTableBlock(r, codec)
}

// --- cohort: final screened responses + the quality report ---

// writeEmptyChoices records which (row, question) answers carry an
// empty-but-allocated Choices slice. The columnar response form stores
// only answer counts, so []string{} (a multi-choice question answered
// with zero selections) collapses into nil on decode — but a restored
// stage must reproduce exactly the values the computed stage held, down
// to reflect.DeepEqual, so payloads that embed responses carry this
// sidecar. Rows are emitted in order with questions sorted, keeping the
// payload canonical.
func writeEmptyChoices(w *table.Writer, vals []survey.Response) {
	var refs []struct {
		row int
		qid string
	}
	for i := range vals {
		var qids []string
		for qid, a := range vals[i].Answers {
			if a.Choices != nil && len(a.Choices) == 0 {
				qids = append(qids, qid)
			}
		}
		sort.Strings(qids)
		for _, qid := range qids {
			refs = append(refs, struct {
				row int
				qid string
			}{i, qid})
		}
	}
	w.Uvarint(uint64(len(refs)))
	for _, e := range refs {
		w.Uvarint(uint64(e.row))
		w.String(e.qid)
	}
}

// applyEmptyChoices reverses writeEmptyChoices over freshly
// materialized responses.
func applyEmptyChoices(r *payloadReader, rs []*survey.Response) error {
	n, err := r.count("empty-choice", 2)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := int(r.Uvarint())
		qid := r.String()
		if r.Err() != nil {
			break
		}
		if row < 0 || row >= len(rs) {
			return fmt.Errorf("core: empty-choice sidecar row %d out of range", row)
		}
		a, ok := rs[row].Answers[qid]
		if !ok {
			return fmt.Errorf("core: empty-choice sidecar names unanswered question %q", qid)
		}
		a.Choices = []string{}
		rs[row].Answers[qid] = a
	}
	return r.Err()
}

func encodeCohortPayload(rs []*survey.Response, qr survey.QualityReport) ([]byte, error) {
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(payloadCohort)
	vals := make([]survey.Response, len(rs))
	for i, r := range rs {
		vals[i] = *r
	}
	if err := encodeTableBlock(w, survey.ResponseCodec{}, table.NewSlice(vals, survey.ResponseCodec{}.HashRow)); err != nil {
		return nil, err
	}
	writeEmptyChoices(w, vals)
	w.Uvarint(uint64(len(qr.Flags)))
	for _, f := range qr.Flags {
		w.String(f.ResponseID)
		w.String(f.Rule)
		w.Varint(int64(f.Severity))
		w.String(f.Detail)
	}
	hard := make([]string, 0, len(qr.HardIDs))
	for id := range qr.HardIDs {
		hard = append(hard, id)
	}
	sort.Strings(hard)
	w.Uvarint(uint64(len(hard)))
	for _, id := range hard {
		w.String(id)
	}
	w.Uvarint(uint64(qr.Responses))
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCohortPayload(payload []byte) ([]*survey.Response, survey.QualityReport, error) {
	var qr survey.QualityReport
	r := newPayloadReader(payload)
	if err := checkMagic(r.Reader, payloadCohort); err != nil {
		return nil, qr, err
	}
	tab, err := decodeTableBlock(r.Reader, survey.ResponseCodec{})
	if err != nil {
		return nil, qr, err
	}
	rs, err := survey.MaterializeResponses(tab)
	if err != nil {
		return nil, qr, err
	}
	if err := applyEmptyChoices(r, rs); err != nil {
		return nil, qr, err
	}
	nf, err := r.count("flag", 4)
	if err != nil {
		return nil, qr, err
	}
	if nf > 0 {
		qr.Flags = make([]survey.Flag, nf)
		for i := range qr.Flags {
			qr.Flags[i] = survey.Flag{
				ResponseID: r.String(),
				Rule:       r.String(),
				Severity:   survey.Severity(r.Varint()),
				Detail:     r.String(),
			}
		}
	}
	nh, err := r.count("hard ID", 1)
	if err != nil {
		return nil, qr, err
	}
	qr.HardIDs = make(map[string]bool, nh)
	for i := 0; i < nh; i++ {
		qr.HardIDs[r.String()] = true
	}
	qr.Responses = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, qr, fmt.Errorf("core: cohort payload: %w", err)
	}
	return rs, qr, nil
}

// --- rake: the raking diagnostics + the per-response weights it set ---

// encodeRakePayload snapshots res plus the weight the stage assigned to
// each response, by cohort index. Restoring weights positionally is
// sound because the cohort the weights apply to is itself pinned by the
// rake stage's upstream key: same key, same responses in the same
// order.
func encodeRakePayload(res weighting.Result, cohort []*survey.Response) ([]byte, error) {
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(payloadRake)
	w.Varint(int64(res.Iterations))
	converged := uint64(0)
	if res.Converged {
		converged = 1
	}
	w.Uvarint(converged)
	w.Float64(res.MaxDeviation)
	w.Float64(res.EffectiveN)
	w.Float64(res.DesignEffect)
	w.Float64(res.MinWeight)
	w.Float64(res.MaxWeight)
	w.Uvarint(uint64(len(res.DeviationTrace)))
	for _, d := range res.DeviationTrace {
		w.Float64(d)
	}
	w.Uvarint(uint64(len(cohort)))
	for _, resp := range cohort {
		w.Float64(resp.Weight)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeRakePayload(payload []byte) (weighting.Result, []float64, error) {
	var res weighting.Result
	r := newPayloadReader(payload)
	if err := checkMagic(r.Reader, payloadRake); err != nil {
		return res, nil, err
	}
	res.Iterations = int(r.Varint())
	res.Converged = r.Uvarint() == 1
	res.MaxDeviation = r.Float64()
	res.EffectiveN = r.Float64()
	res.DesignEffect = r.Float64()
	res.MinWeight = r.Float64()
	res.MaxWeight = r.Float64()
	nt, err := r.count("deviation trace", 8)
	if err != nil {
		return res, nil, err
	}
	if nt > 0 {
		res.DeviationTrace = make([]float64, nt)
		for i := range res.DeviationTrace {
			res.DeviationTrace[i] = r.Float64()
		}
	}
	nw, err := r.count("weight", 8)
	if err != nil {
		return res, nil, err
	}
	weights := make([]float64, nw)
	for i := range weights {
		weights[i] = r.Float64()
	}
	if err := r.Err(); err != nil {
		return res, nil, fmt.Errorf("core: rake payload: %w", err)
	}
	return res, weights, nil
}

// --- panel: longitudinal members as IDs + two wave tables ---

func encodePanelPayload(members []population.PanelMember) ([]byte, error) {
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(payloadPanel)
	w.Uvarint(uint64(len(members)))
	wave1 := make([]survey.Response, len(members))
	wave2 := make([]survey.Response, len(members))
	for i, m := range members {
		if m.Wave1 == nil || m.Wave2 == nil {
			return nil, fmt.Errorf("core: panel member %d missing a wave", i)
		}
		w.String(m.PersonID)
		wave1[i] = *m.Wave1
		wave2[i] = *m.Wave2
	}
	for _, wave := range [][]survey.Response{wave1, wave2} {
		if err := encodeTableBlock(w, survey.ResponseCodec{}, table.NewSlice(wave, survey.ResponseCodec{}.HashRow)); err != nil {
			return nil, err
		}
		writeEmptyChoices(w, wave)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePanelPayload(payload []byte) ([]population.PanelMember, error) {
	r := newPayloadReader(payload)
	if err := checkMagic(r.Reader, payloadPanel); err != nil {
		return nil, err
	}
	n, err := r.count("panel member", 1)
	if err != nil {
		return nil, err
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = r.String()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: panel payload: %w", err)
	}
	waves := make([][]*survey.Response, 2)
	for wi := range waves {
		tab, err := decodeTableBlock(r.Reader, survey.ResponseCodec{})
		if err != nil {
			return nil, err
		}
		rs, err := survey.MaterializeResponses(tab)
		if err != nil {
			return nil, err
		}
		if err := applyEmptyChoices(r, rs); err != nil {
			return nil, err
		}
		if len(rs) != n {
			return nil, fmt.Errorf("core: panel payload wave %d has %d responses, want %d", wi+1, len(rs), n)
		}
		waves[wi] = rs
	}
	members := make([]population.PanelMember, n)
	for i := range members {
		members[i] = population.PanelMember{PersonID: ids[i], Wave1: waves[0][i], Wave2: waves[1][i]}
	}
	return members, nil
}

// --- modlog-merge: per-year telemetry shares ---

func encodeModAggPayload(agg []modlog.YearShares) ([]byte, error) {
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(payloadModAgg)
	w.Uvarint(uint64(len(agg)))
	for _, ys := range agg {
		w.Varint(int64(ys.Year))
		w.Varint(int64(ys.Users))
		keys := make([]string, 0, len(ys.Shares))
		for k := range ys.Shares {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
			w.Float64(ys.Shares[k])
		}
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeModAggPayload(payload []byte) ([]modlog.YearShares, error) {
	r := newPayloadReader(payload)
	if err := checkMagic(r.Reader, payloadModAgg); err != nil {
		return nil, err
	}
	n, err := r.count("year shares", 3)
	if err != nil {
		return nil, err
	}
	agg := make([]modlog.YearShares, n)
	for i := range agg {
		agg[i].Year = int(r.Varint())
		agg[i].Users = int(r.Varint())
		nk, err := r.count("module share", 9)
		if err != nil {
			return nil, err
		}
		agg[i].Shares = make(map[string]float64, nk)
		for j := 0; j < nk; j++ {
			k := r.String()
			agg[i].Shares[k] = r.Float64()
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: modagg payload: %w", err)
	}
	return agg, nil
}

// --- simulations: job results, utilization samples, metrics ---

func encodeSimPayload(res *sched.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("core: nil simulation result")
	}
	var buf bytes.Buffer
	w := table.NewWriter(&buf)
	w.String(payloadSim)
	cols := trace.JobCodec{}.NewColumns()
	for _, jr := range res.Results {
		cols.Append(jr.Job)
	}
	w.Uvarint(uint64(len(res.Results)))
	if err := cols.EncodeTo(w); err != nil {
		return nil, err
	}
	for _, jr := range res.Results {
		w.Varint(jr.Start)
		w.Varint(jr.Wait)
	}
	w.Uvarint(uint64(len(res.Samples)))
	for _, s := range res.Samples {
		w.Varint(s.Time)
		w.Float64(s.CPUUtil)
		w.Float64(s.GPUUtil)
		w.Varint(int64(s.Queued))
	}
	m := res.Metrics
	w.Varint(int64(m.Policy))
	w.Varint(int64(m.Jobs))
	w.Varint(m.Makespan)
	w.Float64(m.MeanWait)
	w.Float64(m.MedianWait)
	w.Float64(m.P95Wait)
	w.Varint(m.MaxWait)
	w.Float64(m.AvgCPUUtil)
	w.Float64(m.AvgGPUUtil)
	w.Varint(int64(m.BackfillStarts))
	w.Float64(m.BoundedSlowdown)
	w.Float64(m.CPUMeanWait)
	w.Float64(m.GPUMeanWait)
	w.Float64(m.UserFairness)
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSimPayload(payload []byte) (*sched.Result, error) {
	r := newPayloadReader(payload)
	if err := checkMagic(r.Reader, payloadSim); err != nil {
		return nil, err
	}
	// The job count comes before the job columns, so it is checked
	// against the decoded columns, not the bytes left.
	n := r.Uvarint()
	cols := trace.JobCodec{}.NewColumns()
	if err := cols.DecodeFrom(r.Reader); err != nil {
		return nil, fmt.Errorf("core: sim payload jobs: %w", err)
	}
	if uint64(cols.Len()) != n {
		return nil, fmt.Errorf("core: sim payload has %d jobs, header says %d", cols.Len(), n)
	}
	res := &sched.Result{Results: make([]sched.JobResult, cols.Len())}
	for i := range res.Results {
		res.Results[i] = sched.JobResult{Job: cols.Row(i), Start: r.Varint(), Wait: r.Varint()}
	}
	ns, err := r.count("utilization sample", 18)
	if err != nil {
		return nil, err
	}
	res.Samples = make([]sched.UtilSample, ns)
	for i := range res.Samples {
		res.Samples[i] = sched.UtilSample{
			Time:    r.Varint(),
			CPUUtil: r.Float64(),
			GPUUtil: r.Float64(),
			Queued:  int(r.Varint()),
		}
	}
	res.Metrics = sched.Metrics{
		Policy:          sched.Policy(r.Varint()),
		Jobs:            int(r.Varint()),
		Makespan:        r.Varint(),
		MeanWait:        r.Float64(),
		MedianWait:      r.Float64(),
		P95Wait:         r.Float64(),
		MaxWait:         r.Varint(),
		AvgCPUUtil:      r.Float64(),
		AvgGPUUtil:      r.Float64(),
		BackfillStarts:  int(r.Varint()),
		BoundedSlowdown: r.Float64(),
		CPUMeanWait:     r.Float64(),
		GPUMeanWait:     r.Float64(),
		UserFairness:    r.Float64(),
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: sim payload: %w", err)
	}
	return res, nil
}
