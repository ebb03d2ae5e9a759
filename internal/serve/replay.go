package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"distws/internal/sim"
)

// Arrival is one line of a JSONL arrival log: a tenant index and a
// virtual arrival instant in nanoseconds.
type Arrival struct {
	Tenant int      `json:"tenant"`
	At     sim.Time `json:"at"`
}

// ReadArrivals parses a JSONL arrival log (one Arrival object per
// line, blank lines ignored) into per-tenant replay traces for
// tenants 0..tenants-1. Lines naming an out-of-range tenant, or holding
// anything after their arrival, are an error: a replay that silently
// drops traffic is a regression trap.
func ReadArrivals(r io.Reader, tenants int) ([][]sim.Time, error) {
	traces := make([][]sim.Time, tenants)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		trimmed := false
		for _, c := range raw {
			if c != ' ' && c != '\t' && c != '\r' {
				trimmed = true
				break
			}
		}
		if !trimmed {
			continue
		}
		var a Arrival
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&a); err != nil {
			return nil, fmt.Errorf("serve: arrivals line %d: %w", line, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("serve: arrivals line %d: data after the arrival", line)
		}
		if a.Tenant < 0 || a.Tenant >= tenants {
			return nil, fmt.Errorf("serve: arrivals line %d: tenant %d out of range [0, %d)", line, a.Tenant, tenants)
		}
		if a.At < 0 {
			return nil, fmt.Errorf("serve: arrivals line %d: negative arrival time %v", line, a.At)
		}
		traces[a.Tenant] = append(traces[a.Tenant], a.At)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading arrivals: %w", err)
	}
	return traces, nil
}

// WriteArrivals emits a schedule's arrivals as a JSONL log, one line
// per job in arrival order — the capture half of the replay loop: a
// stochastic run's arrivals can be logged once and replayed forever.
func WriteArrivals(w io.Writer, sched *Schedule) error {
	bw := bufio.NewWriter(w)
	for i := range sched.Jobs {
		j := &sched.Jobs[i]
		b, err := json.Marshal(Arrival{Tenant: int(j.Tenant), At: j.At})
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
