package channel

import (
	"math"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

// refJakes and refModel are a frozen copy of the channel as it was
// when every SINR was computed one subband at a time, with every term
// evaluated in place. They are the oracle the batch evaluation must
// match bit for bit; do not "tidy" them to share code with fading.go.
type refJakes struct {
	dopplerHz float64
	phasesI   []float64
	phasesQ   []float64
	angles    []float64
}

func newRefJakes(dopplerHz float64, r *rng.Source) *refJakes {
	j := &refJakes{
		dopplerHz: dopplerHz,
		phasesI:   make([]float64, numOscillators),
		phasesQ:   make([]float64, numOscillators),
		angles:    make([]float64, numOscillators),
	}
	for n := 0; n < numOscillators; n++ {
		j.phasesI[n] = 2 * math.Pi * r.Float64()
		j.phasesQ[n] = 2 * math.Pi * r.Float64()
		j.angles[n] = 2 * math.Pi * r.Float64()
	}
	return j
}

func (j *refJakes) gainDB(t sim.Time) float64 {
	if j.dopplerHz <= 0 {
		sum := 0.0
		for n := 0; n < numOscillators; n++ {
			sum += math.Cos(j.phasesI[n]) + math.Cos(j.phasesQ[n])
		}
		return 3 * math.Tanh(sum/4)
	}
	ts := t.Seconds()
	var i, q float64
	for n := 0; n < numOscillators; n++ {
		w := 2 * math.Pi * j.dopplerHz * math.Cos(j.angles[n]) * ts
		i += math.Cos(w + j.phasesI[n])
		q += math.Sin(w + j.phasesQ[n])
	}
	norm := float64(numOscillators)
	p := (i*i + q*q) / norm
	if p < 1e-6 {
		p = 1e-6
	}
	return 10 * math.Log10(p)
}

type refModel struct {
	meanSINRdB  float64
	subbands    []*refJakes
	wideband    *refJakes
	mob         *Mobility
	plExponent  float64
	refDistM    float64
	shadowingDB float64
}

func newRefModel(cfg Config, r *rng.Source) *refModel {
	if cfg.NumSubbands < 1 {
		cfg.NumSubbands = 1
	}
	doppler := cfg.SpeedMPS / speedOfLight * cfg.CarrierHz
	m := &refModel{
		meanSINRdB: cfg.MeanSINRdB,
		mob:        cfg.Mobility,
		plExponent: cfg.PathLossExp,
		refDistM:   100,
		wideband:   newRefJakes(doppler, r),
	}
	if cfg.ShadowingStd > 0 {
		m.shadowingDB = r.Normal(0, cfg.ShadowingStd)
	}
	m.subbands = make([]*refJakes, cfg.NumSubbands)
	for i := range m.subbands {
		m.subbands[i] = newRefJakes(doppler, r)
	}
	return m
}

func (m *refModel) SINRdB(t sim.Time, subband int) float64 {
	if subband < 0 {
		subband = 0
	}
	sb := m.subbands[subband%len(m.subbands)]
	s := m.meanSINRdB + m.shadowingDB
	s += 0.7*m.wideband.gainDB(t) + 0.3*sb.gainDB(t)
	if m.mob != nil && m.plExponent > 0 {
		d := m.mob.DistanceM(t)
		if d < 1 {
			d = 1
		}
		s -= 10 * m.plExponent * math.Log10(d/m.refDistM)
	}
	return s
}

// meanOver is the loop ran.Cell.sinrOver ran over refModel.SINRdB.
func (m *refModel) meanOver(t sim.Time, sbs []int) float64 {
	s := 0.0
	if len(sbs) == 0 {
		n := len(m.subbands)
		for sb := 0; sb < n; sb++ {
			s += m.SINRdB(t, sb)
		}
		return s / float64(n)
	}
	for _, sb := range sbs {
		s += m.SINRdB(t, sb)
	}
	return s / float64(len(sbs))
}

// oraclePair builds the model under test and the oracle from equal
// seeds, each with its own Mobility, so the pair also proves the
// construction-time draw order is unchanged.
func oraclePair(s Scenario, carrierHz float64, seed uint64) (*Model, *refModel) {
	build := func() (Config, *rng.Source) {
		r := rng.New(seed)
		var mob *Mobility
		if s.RadiusM > 0 {
			mob = NewMobility(s.RadiusM, s.SpeedMPS, r.Fork())
		}
		return Config{
			MeanSINRdB:   r.Normal(20, 5),
			SpeedMPS:     s.SpeedMPS,
			CarrierHz:    carrierHz,
			NumSubbands:  s.NumSubbands,
			Mobility:     mob,
			PathLossExp:  s.PathLossExp,
			ShadowingStd: s.ShadowingStd,
		}, r.Fork()
	}
	cfg, r := build()
	m := New(cfg, r)
	cfg, r = build()
	return m, newRefModel(cfg, r)
}

// TestBitIdenticalToPerSubbandFormula asserts that SINRdB,
// SubbandSINRs and MeanSINROver return the float64 bit patterns of the
// frozen per-subband formula. TestTrigPathsAgree repeats the check on
// each of gainDB's trig paths.
func TestBitIdenticalToPerSubbandFormula(t *testing.T) {
	checkBitIdenticalToPerSubbandFormula(t)
}

func checkBitIdenticalToPerSubbandFormula(t *testing.T) {
	cases := []struct {
		name    string
		s       Scenario
		carrier float64
	}{
		{"pedestrian", Pedestrian(), 2.68e9},
		{"urban-28ghz", Urban28GHz(), 28e9},
		{"rome", ColosseumRome(), 2.68e9},
		{"boston", ColosseumBoston(), 2.68e9},
		{"powder", ColosseumPOWDER(), 2.68e9},
		{"pathloss-mobile", Scenario{SpeedMPS: 1.4, RadiusM: 200, NumSubbands: 13, ShadowingStd: 2, PathLossExp: 3.5}, 2.68e9},
		{"pathloss-no-mobility", Scenario{SpeedMPS: 3, NumSubbands: 4, PathLossExp: 3.5}, 2.68e9},
		{"static", Scenario{SpeedMPS: 0, RadiusM: 50, NumSubbands: 7, PathLossExp: 2}, 2.68e9},
		{"one-subband", Scenario{SpeedMPS: 1.4, RadiusM: 200, NumSubbands: 1, ShadowingStd: 2}, 2.68e9},
	}
	for ci, tc := range cases {
		tc := tc
		seed := uint64(100 + ci)
		t.Run(tc.name, func(t *testing.T) {
			m, ref := oraclePair(tc.s, tc.carrier, seed)
			nsb := m.NumSubbands()
			if nsb != len(ref.subbands) {
				t.Fatalf("NumSubbands = %d, oracle has %d", nsb, len(ref.subbands))
			}
			r := rng.New(seed ^ 0xfade)
			times := []sim.Time{0, 3700 * sim.Second, 7300*sim.Second + 1}
			for i := 0; i < 1000; i++ {
				times = append(times, sim.Time(r.Float64()*float64(600*sim.Second)))
			}
			lists := [][]int{nil, {}, {0}, {nsb - 1}, {-1, -7}, {nsb, 3*nsb + 1, 1 << 30}, {2, 0, 2, 1}}
			buf := make([]float64, nsb+2)
			same := func(what string, tm sim.Time, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s at t=%d: %v (%#x), oracle %v (%#x)", what, tm,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for _, tm := range times {
				for _, sb := range []int{-3, -1, 0, nsb - 1, nsb, 2*nsb + 1} {
					same("SINRdB", tm, m.SINRdB(tm, sb), ref.SINRdB(tm, sb))
				}
				got := m.SubbandSINRs(tm, buf)
				if len(got) != nsb {
					t.Fatalf("SubbandSINRs returned %d values, want %d", len(got), nsb)
				}
				for sb, v := range got {
					same("SubbandSINRs", tm, v, ref.SINRdB(tm, sb))
				}
				// A drawn list on top of the fixed edge cases.
				drawn := make([]int, 1+r.Intn(2*nsb))
				for i := range drawn {
					drawn[i] = r.Intn(nsb)
				}
				for _, sbs := range append(lists, drawn) {
					same("MeanSINROver", tm, m.MeanSINROver(tm, sbs), ref.meanOver(tm, sbs))
				}
			}
		})
	}
}

// refNewJakes is a frozen copy of newJakes as it was when every
// oscillator evaluated all 24 cosines with math.Cos, whichever mode
// read them.
func refNewJakes(dopplerHz float64, r *rng.Source) jakes {
	j := jakes{static: dopplerHz <= 0}
	sum := 0.0
	for n := 0; n < numOscillators; n++ {
		j.phasesI[n] = 2 * math.Pi * r.Float64()
		j.phasesQ[n] = 2 * math.Pi * r.Float64()
		angle := 2 * math.Pi * r.Float64()
		j.omega[n] = 2 * math.Pi * dopplerHz * math.Cos(angle)
		sum += math.Cos(j.phasesI[n]) + math.Cos(j.phasesQ[n])
	}
	j.staticDB = 3 * math.Tanh(sum/4)
	return j
}

// TestNewJakesMatchesFrozen builds oscillators with newJakes and with
// the frozen copy from equal seeds, static and moving, and requires
// the same phases, the same Doppler terms when moving, the same
// staticDB when static, the same rng position after construction, and
// the same gainDB bits over a time grid.
func TestNewJakesMatchesFrozen(t *testing.T) {
	dopplers := []float64{0, -3, math.Copysign(0, -1), 1e-3, 4.67, 12.5, 130.7, 1e3}
	times := []float64{0, 1e-3, 0.5, 1, 7.25, 60, 599.999, 3600, 1e5}
	for i := 0; i < 200; i++ {
		times = append(times, float64(i*i)*3e-3)
	}
	bits := math.Float64bits
	for _, fd := range dopplers {
		for seed := uint64(1); seed <= 500; seed++ {
			r, ref := rng.New(seed), rng.New(seed)
			got, want := newJakes(fd, r), refNewJakes(fd, ref)
			if got.static != want.static {
				t.Fatalf("fd=%v seed %d: static %v, frozen %v", fd, seed, got.static, want.static)
			}
			for n := 0; n < numOscillators; n++ {
				if bits(got.phasesI[n]) != bits(want.phasesI[n]) || bits(got.phasesQ[n]) != bits(want.phasesQ[n]) {
					t.Fatalf("fd=%v seed %d: oscillator %d phases differ", fd, seed, n)
				}
				if !got.static && bits(got.omega[n]) != bits(want.omega[n]) {
					t.Fatalf("fd=%v seed %d: omega[%d] = %v, frozen %v", fd, seed, n, got.omega[n], want.omega[n])
				}
			}
			if got.static && bits(got.staticDB) != bits(want.staticDB) {
				t.Fatalf("fd=%v seed %d: staticDB = %v, frozen %v", fd, seed, got.staticDB, want.staticDB)
			}
			if a, b := r.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("fd=%v seed %d: next draw %#x, frozen %#x", fd, seed, a, b)
			}
			for _, ts := range times {
				if a, b := got.gainDB(ts), want.gainDB(ts); bits(a) != bits(b) {
					t.Fatalf("fd=%v seed %d: gainDB(%v) = %v, frozen %v", fd, seed, ts, a, b)
				}
			}
		}
	}
}
