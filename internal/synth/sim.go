package synth

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/corrupt"
	"repro/internal/voter"
)

// registration is one registration row of a voter: the register keeps one
// row per registration, so a voter who re-registered (e.g. after moving
// between counties) appears with several rows even within a single snapshot
// — all but the latest carrying the REMOVED status (§2 of the paper).
type registration struct {
	regNum      string
	stored      voter.Record // last manually entered form, with entry errors
	registered  string
	cancelled   string // empty while this registration is current
	reason      string // status reason when cancelled
	countyIdx   int
	precinct    int
	city        string // ground-truth city at registration time
	hasDistrict bool
}

// Config parameterizes the register simulator. All rates are per snapshot.
type Config struct {
	Seed          int64
	InitialVoters int      // population of the first snapshot
	Snapshots     []string // snapshot dates (YYYY-MM-DD), chronological

	NewVoterRate    float64 // new voters as a fraction of the active population
	ReRegisterRate  float64 // chance an active voter files a fresh form
	MoveRate        float64 // chance of an address change (implies a fresh form)
	CrossCountyRate float64 // fraction of moves that retire the registration
	MarryRate       float64 // chance of a last-name change (implies a fresh form)
	DeregisterRate  float64 // chance a voter leaves the register
	UnsoundRate     float64 // fraction of new voters wrongly reusing a removed NCID

	Errors          corrupt.Config // entry-time corruption of filed forms
	PadSnapshotRate float64        // fraction of snapshots exported with padded columns
	DriftAt         []int          // snapshot indices at which district formats change era
}

// DefaultConfig returns a configuration producing the paper's qualitative
// shape at the given scale: a long snapshot series with two format-drift
// years, light realistic entry errors, and a small unsound-cluster rate.
func DefaultConfig(seed int64, initialVoters int) Config {
	return Config{
		Seed:            seed,
		InitialVoters:   initialVoters,
		Snapshots:       Calendar(2008, 13),
		NewVoterRate:    0.02,
		ReRegisterRate:  0.12,
		MoveRate:        0.04,
		CrossCountyRate: 0.3,
		MarryRate:       0.006,
		DeregisterRate:  0.01,
		UnsoundRate:     0.003,
		Errors:          corrupt.Light(),
		PadSnapshotRate: 0.25,
		DriftAt:         []int{7, 14},
	}
}

// Calendar returns the snapshot dates of a register covering years starting
// at startYear: one snapshot every New Year's Day plus one at every
// November election in even years — the publication rhythm of the real
// register (§5.1).
func Calendar(startYear, years int) []string {
	var dates []string
	for y := startYear; y < startYear+years; y++ {
		dates = append(dates, fmt.Sprintf("%04d-01-01", y))
		if y%2 == 0 {
			dates = append(dates, fmt.Sprintf("%04d-11-03", y))
		}
	}
	return dates
}

// Simulator evolves the synthetic population and emits snapshots. Create it
// with New, then call Next once per configured snapshot date (or Run for all
// of them).
type Simulator struct {
	cfg     Config
	events  *rand.Rand
	entry   *corrupt.Corruptor
	emitRNG *rand.Rand

	persons     []*person
	regsOf      map[*person][]*registration
	removedPool []*person // fully deregistered voters eligible for NCID misuse
	nextID      int
	nextReg     int
	era         int
	snapIdx     int
}

// New returns a simulator over cfg. The three random streams (life events,
// form entry, export padding) are independent sub-streams of cfg.Seed.
func New(cfg Config) *Simulator {
	return &Simulator{
		cfg:     cfg,
		events:  corrupt.NewRand(cfg.Seed, 0),
		entry:   corrupt.NewCorruptor(cfg.Errors, corrupt.NewRand(cfg.Seed, 1)),
		emitRNG: corrupt.NewRand(cfg.Seed, 2),
		regsOf:  map[*person][]*registration{},
	}
}

// NumSnapshots returns how many snapshots the configuration will produce.
func (s *Simulator) NumSnapshots() int { return len(s.cfg.Snapshots) }

// allocNCID returns the next fresh object id in the register's two-letters-
// plus-digits format (e.g. DB175272).
func (s *Simulator) allocNCID() string {
	s.nextID++
	return fmt.Sprintf("%c%c%06d", 'A'+rune((s.nextID/26)%26), 'A'+rune(s.nextID%26), s.nextID)
}

// allocRegNum returns the next registration number.
func (s *Simulator) allocRegNum() string {
	s.nextReg++
	return fmt.Sprintf("%09d", s.nextReg)
}

// enter files a fresh form for p's current registration: ground truth is
// rendered and then passed through the entry corruptor. Most voters leave
// the optional phone field blank (as in the real register, where the
// phone column is sparsely populated), which keeps this highly unique
// attribute from anchoring every duplicate.
func (s *Simulator) enter(p *person, reg *registration) {
	r := p.enterForm()
	r.SetName("ncid", p.ncid)
	if s.events.Float64() < 0.65 {
		r.SetName("phone_num", "")
		r.SetName("area_cd", "")
	}
	s.entry.Apply(&r)
	reg.stored = r
	reg.countyIdx = p.countyIdx
	reg.precinct = p.precinct
	reg.city = p.city
	reg.hasDistrict = p.hasDistrict
}

// register creates a brand-new registration for p starting at date.
func (s *Simulator) register(p *person, date string) *registration {
	reg := &registration{regNum: s.allocRegNum(), registered: date}
	s.regsOf[p] = append(s.regsOf[p], reg)
	s.enter(p, reg)
	return reg
}

// currentReg returns p's latest registration.
func (s *Simulator) currentReg(p *person) *registration {
	regs := s.regsOf[p]
	return regs[len(regs)-1]
}

// addVoter creates a new person (occasionally misusing a removed NCID,
// which is what produces the unsound clusters the plausibility check
// exists for) and registers them.
func (s *Simulator) addVoter(date string, year int) *person {
	var ncid string
	if s.cfg.UnsoundRate > 0 && len(s.removedPool) > 0 && s.events.Float64() < s.cfg.UnsoundRate {
		victim := s.removedPool[s.events.Intn(len(s.removedPool))]
		ncid = victim.ncid
		// Remove the victim from the pool so an id is misused at most once.
		for i, v := range s.removedPool {
			if v == victim {
				s.removedPool = append(s.removedPool[:i], s.removedPool[i+1:]...)
				break
			}
		}
	} else {
		ncid = s.allocNCID()
	}
	p := newPerson(s.events, ncid, "", year)
	p.registered = date
	s.persons = append(s.persons, p)
	s.register(p, date)
	return p
}

// Next advances the simulation by one snapshot and returns it. It panics if
// called more times than there are configured snapshot dates.
func (s *Simulator) Next() voter.Snapshot {
	if s.snapIdx >= len(s.cfg.Snapshots) {
		panic("synth: Next called past the configured snapshot calendar")
	}
	date := s.cfg.Snapshots[s.snapIdx]
	year := yearOf(date)
	for _, d := range s.cfg.DriftAt {
		if d == s.snapIdx {
			s.era++
		}
	}

	if s.snapIdx == 0 {
		for i := 0; i < s.cfg.InitialVoters; i++ {
			s.addVoter(date, year)
		}
	} else {
		s.lifeEvents(date, year)
		active := 0
		for _, p := range s.persons {
			if p.active {
				active++
			}
		}
		newcomers := int(float64(active) * s.cfg.NewVoterRate)
		for i := 0; i < newcomers; i++ {
			s.addVoter(date, year)
		}
	}

	snap := s.emit(date, year)
	s.snapIdx++
	return snap
}

// lifeEvents applies the per-snapshot population dynamics to every active
// voter: deregistration, moves (within- and cross-county), marriages and
// plain re-registrations. Every event that involves a freshly filed form
// passes through the entry corruptor, creating a fuzzy duplicate of the
// voter's earlier rows.
func (s *Simulator) lifeEvents(date string, year int) {
	rng := s.events
	for _, p := range s.persons {
		if !p.active {
			continue
		}
		switch {
		case rng.Float64() < s.cfg.DeregisterRate:
			reg := s.currentReg(p)
			reg.cancelled = date
			reg.reason = pick(rng, "MOVED FROM STATE", "DECEASED", "FELONY CONVICTION")
			p.active = false
			p.cancelled = date
			s.removedPool = append(s.removedPool, p)
		case rng.Float64() < s.cfg.MoveRate:
			if rng.Float64() < s.cfg.CrossCountyRate {
				// Cross-county move: new city, the old registration is
				// retired and a new one opened; the voter now has several
				// rows per snapshot.
				p.moveToNewCity(rng)
				old := s.currentReg(p)
				old.cancelled = date
				old.reason = "MOVED FROM COUNTY"
				p.countyIdx = rng.Intn(len(counties))
				p.hasDistrict = p.countyIdx < len(counties)/2
				s.register(p, date)
			} else {
				// Local move: only the street-level address changes.
				p.moveWithinCity(rng)
				s.enter(p, s.currentReg(p))
			}
		case rng.Float64() < s.cfg.MarryRate:
			// A marriage changes the last name and usually the residence
			// at once — the compound change that makes the dirtiest real
			// duplicates so hard to detect.
			p.last = lastNames[rng.Intn(len(lastNames))]
			if rng.Float64() < 0.7 {
				p.moveToNewCity(rng)
			}
			s.enter(p, s.currentReg(p))
		case rng.Float64() < s.cfg.ReRegisterRate:
			s.enter(p, s.currentReg(p))
		}
	}
}

// pick returns one of the options uniformly.
func pick(rng *rand.Rand, options ...string) string {
	return options[rng.Intn(len(options))]
}

// paddedColumns are the columns some snapshot exports pad with trailing
// whitespace, the artifact the paper's trimming step removes.
var paddedColumns = []int{
	voter.IdxLastName, voter.IdxFirstName, voter.IdxRaceDesc,
	voter.MustIndex("county_desc"), voter.IdxMailAddr1,
}

// emit renders the current population state into one snapshot: every
// registration of every person (current and retired) becomes a row.
func (s *Simulator) emit(date string, year int) voter.Snapshot {
	padded := s.emitRNG.Float64() < s.cfg.PadSnapshotRate
	loadDate := addDays(date, 2)
	snap := voter.Snapshot{Date: date}
	for _, p := range s.persons {
		regs := s.regsOf[p]
		for ri, reg := range regs {
			r := reg.stored.Clone()
			r.SetName("ncid", p.ncid)
			r.SetName("snapshot_dt", date)
			r.SetName("load_dt", loadDate)
			r.SetName("registr_dt", reg.registered)
			r.SetName("cancellation_dt", reg.cancelled)
			r.SetName("voter_reg_num", reg.regNum)
			current := ri == len(regs)-1
			if current && p.active {
				r.SetName("voter_status_desc", "ACTIVE")
				r.SetName("voter_status_reason_desc", "VERIFIED")
			} else {
				r.SetName("voter_status_desc", "REMOVED")
				r.SetName("voter_status_reason_desc", reg.reason)
			}
			age := p.ageAt(year)
			if v := strings.TrimSpace(reg.stored.GetName("age")); v != "" {
				// A clerk-entered age (the OutlierAge error) overrides the
				// derived value until the next re-registration.
				r.SetName("age", v)
			} else {
				r.SetName("age", strconv.Itoa(age))
			}
			r.SetName("age_group", ageGroupLabel(age, s.era))
			if reg.hasDistrict {
				// District columns are derived by the export per current
				// era, so a format drift changes every affected row at
				// once.
				tmp := *p
				tmp.countyIdx = reg.countyIdx
				tmp.precinct = reg.precinct
				tmp.city = reg.city
				tmp.fillDistricts(&r, s.era)
			}
			if padded {
				for _, ci := range paddedColumns {
					if r.Values[ci] != "" {
						r.Values[ci] += "  "
					}
				}
			}
			snap.Records = append(snap.Records, r)
		}
	}
	return snap
}

// Run generates every configured snapshot in order.
func (s *Simulator) Run() []voter.Snapshot {
	out := make([]voter.Snapshot, 0, len(s.cfg.Snapshots))
	for range s.cfg.Snapshots {
		out = append(out, s.Next())
	}
	return out
}

// Generate is the package-level convenience: it runs a full simulation
// under cfg and returns all snapshots.
func Generate(cfg Config) []voter.Snapshot {
	return New(cfg).Run()
}

// WriteAll runs the simulation and writes every snapshot into dir as a
// canonical TSV file, returning the file paths.
func WriteAll(cfg Config, dir string) ([]string, error) {
	sim := New(cfg)
	var paths []string
	for range cfg.Snapshots {
		snap := sim.Next()
		p, err := voter.WriteSnapshotFile(dir, snap)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// WriteAllParallel is WriteAll with the snapshot file emission spread over a
// worker pool: snapshot generation stays sequential (the simulator is a
// stateful year-over-year process, so parallelizing it would change the
// data), but the TSV encoding and disk write of snapshot k overlap the
// generation of snapshot k+1 and each other. The emitted files and the
// returned snapshot-ordered paths are identical to WriteAll for any worker
// count. workers <= 0 selects GOMAXPROCS; workers == 1 runs one writer
// beside the generator, which beats WriteAll even on one core.
func WriteAllParallel(cfg Config, dir string, workers int) ([]string, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		idx  int
		snap voter.Snapshot
	}
	jobs := make(chan job, workers)
	paths := make([]string, len(cfg.Snapshots))
	errs := make([]error, len(cfg.Snapshots))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				paths[j.idx], errs[j.idx] = voter.WriteSnapshotFile(dir, j.snap)
			}
		}()
	}
	sim := New(cfg)
	for i := range cfg.Snapshots {
		jobs <- job{idx: i, snap: sim.Next()}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// yearOf parses the year of a YYYY-MM-DD date, returning 0 on malformed
// input.
func yearOf(date string) int {
	t, err := time.Parse("2006-01-02", date)
	if err != nil {
		return 0
	}
	return t.Year()
}

// addDays shifts a YYYY-MM-DD date by n days; malformed dates are returned
// unchanged.
func addDays(date string, n int) string {
	t, err := time.Parse("2006-01-02", date)
	if err != nil {
		return date
	}
	return t.AddDate(0, 0, n).Format("2006-01-02")
}
