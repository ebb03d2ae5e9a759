package term

import "testing"

// deliverChain walks the sends until the token is delivered to `to`,
// returning the follow-up sends.
func deliverChain(t *testing.T, d Detector, sends []Send, to int) []Send {
	t.Helper()
	for len(sends) > 0 {
		s := sends[0]
		if len(sends) != 1 {
			t.Fatalf("expected a single token in flight, got %d", len(sends))
		}
		if s.To == to {
			return d.OnToken(s.To, s.Token)
		}
		sends = d.OnToken(s.To, s.Token)
	}
	t.Fatalf("token never reached rank %d", to)
	return nil
}

// TestIdleDecisionPossible drives both detectors through the states
// IdleDecisionPossible tells apart: no round started and a
// non-initiator (no decision), a verdict reached (no decision), and a
// lone rank, whose next OnIdle decides. A token parked at the initiator
// is TestIdleDecisionRuledOutByColor's: a rank is busy only before its
// first OnIdle or after receiving work, which blackens it, so such a
// token always waits behind a black initiator.
func TestIdleDecisionPossible(t *testing.T) {
	for _, mk := range []struct {
		name string
		f    Factory
	}{{"Safra", NewSafra}, {"Ring", NewRing}} {
		t.Run(mk.name, func(t *testing.T) {
			d := mk.f(3)
			da := d.(DecisionAware)
			if da.IdleDecisionPossible(0) {
				t.Fatal("decision possible before the first round started")
			}
			if da.IdleDecisionPossible(1) {
				t.Fatal("decision reported possible at a non-initiator")
			}
			sends := append(d.OnIdle(1), d.OnIdle(2)...)
			sends = append(sends, d.OnIdle(0)...)
			if !pump(d, sends, 100) || !d.Terminated() {
				t.Fatal("an all-idle round did not decide termination")
			}
			if da.IdleDecisionPossible(0) {
				t.Fatal("decision still flagged after termination")
			}

			// A lone rank decides on its next OnIdle.
			d = mk.f(1)
			da = d.(DecisionAware)
			if !da.IdleDecisionPossible(0) {
				t.Fatal("a lone rank's first OnIdle decides: decision must be flagged possible")
			}
			if d.OnIdle(0); !d.Terminated() {
				t.Fatal("a lone idle rank did not decide termination")
			}
		})
	}
}

// TestIdleDecisionRuledOutByColor pins the case DecisionAware's promise
// rests on: a parked token at an initiator tainted black cannot decide,
// and the flag says so.
func TestIdleDecisionRuledOutByColor(t *testing.T) {
	for _, mk := range []struct {
		name string
		f    Factory
	}{{"Safra", NewSafra}, {"Ring", NewRing}} {
		t.Run(mk.name, func(t *testing.T) {
			d := mk.f(3)
			da := d.(DecisionAware)
			d.OnIdle(1)
			d.OnIdle(2)
			sends := d.OnIdle(0)
			// Work traffic taints the initiator before the token returns.
			d.WorkSent(1)
			d.WorkReceived(0)
			sends = deliverChain(t, d, sends, 0)
			if len(sends) != 0 {
				t.Fatalf("parked token produced sends %v", sends)
			}
			if da.IdleDecisionPossible(0) {
				t.Fatal("black initiator flagged as possibly deciding")
			}
			if d.OnIdle(0); d.Terminated() {
				t.Fatal("tainted round decided termination (flag soundness check broken)")
			}
		})
	}
}
