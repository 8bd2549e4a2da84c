package corrupt

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/voter"
)

// confuseValues swaps the values of two attributes in place — the paper's
// value-confusion irregularity (e.g. first and last name transposed between
// two registrations of the same voter).
func confuseValues(r *voter.Record, i, j int) {
	r.Values[i], r.Values[j] = r.Values[j], r.Values[i]
}

// integrateValue appends the value of attribute from as an extra token of
// attribute into and clears from — the "integrated value" irregularity
// (e.g. a middle name stored as a second token of the first name).
func integrateValue(r *voter.Record, from, into int) {
	v := strings.TrimSpace(r.Values[from])
	if v == "" {
		return
	}
	if t := strings.TrimSpace(r.Values[into]); t != "" {
		r.Values[into] = t + " " + v
	} else {
		r.Values[into] = v
	}
	r.Values[from] = ""
}

// scatterValues redistributes the combined token multiset of attributes i
// and j randomly between the two — the "scattered values" irregularity. The
// union of tokens is preserved; their assignment is not. Both attributes end
// up non-empty when at least two tokens exist.
func scatterValues(rng *rand.Rand, r *voter.Record, i, j int) {
	tokens := append(strings.Fields(r.Values[i]), strings.Fields(r.Values[j])...)
	if len(tokens) < 2 {
		return
	}
	rng.Shuffle(len(tokens), func(a, b int) { tokens[a], tokens[b] = tokens[b], tokens[a] })
	cut := 1 + rng.Intn(len(tokens)-1)
	r.Values[i] = strings.Join(tokens[:cut], " ")
	r.Values[j] = strings.Join(tokens[cut:], " ")
}

// makeMissing blanks the value of attribute i, optionally using one of the
// conventional missing markers instead of the empty string.
func makeMissing(rng *rand.Rand, r *voter.Record, i int) {
	markers := []string{"", "", "", "-", "UNKNOWN"}
	r.Values[i] = markers[rng.Intn(len(markers))]
}

// OutlierAge replaces the age value with an implausible number (the paper's
// example: age = 5069), simulating a data-entry slip that concatenated
// digits.
func OutlierAge(rng *rand.Rand, r *voter.Record) {
	age := r.Age()
	if age < 0 {
		age = rng.Intn(90) + 18
	}
	// Duplicate one digit or append the year's tail digits.
	s := strconv.Itoa(age)
	pos := rng.Intn(len(s) + 1)
	d := byte('0' + rng.Intn(10))
	r.Values[voter.IdxAge] = s[:pos] + string(d) + s[pos:]
}

// Config sets the per-value probabilities of the Corruptor. All rates are
// independent per eligible attribute value; a rate of 0 disables the error
// type. The zero value applies no corruption.
type Config struct {
	Typo            float64 // single-edit typos in name/string values
	OCR             float64 // OCR digit/letter confusions
	Phonetic        float64 // soundex-preserving respellings
	Abbreviation    float64 // reduce to an initial
	TruncateTail    float64 // prefix irregularity
	TruncateHead    float64 // postfix irregularity
	DropToken       float64 // forgotten token
	TokenTranspose  float64 // swapped tokens inside a value
	Format          float64 // representation-only changes
	Case            float64 // upper/lower case noise
	Missing         float64 // blank a value
	Whitespace      float64 // leading/trailing spaces
	Nickname        float64 // formal first name <-> common nickname
	ValueConfusion  float64 // per record: swap first/middle/last name pair
	IntegratedValue float64 // per record: merge middle name into another name
	ScatteredValue  float64 // per record: rescatter name tokens
	OutlierAge      float64 // per record: implausible age value
}

// Light returns a configuration producing a realistically low error density,
// matching the small NC percentages of Table 4 (most duplicate pairs differ
// only in a couple of values).
func Light() Config {
	return Config{
		Typo:           0.02,
		OCR:            0.0005,
		Phonetic:       0.008,
		Abbreviation:   0.04,
		TruncateTail:   0.01,
		TruncateHead:   0.002,
		DropToken:      0.005,
		TokenTranspose: 0.004,
		Format:         0.004,
		Case:           0.002,
		Missing:        0.03,
		Whitespace:     0.05,
		// Nicknames stay off in the calibrated default: the paper's
		// Table 4 does not profile them. Heavy() and user configs opt in.
		Nickname:        0,
		ValueConfusion:  0.0015,
		IntegratedValue: 0.004,
		ScatteredValue:  0.0008,
		OutlierAge:      0.001,
	}
}

// Heavy returns a configuration with error rates an order of magnitude above
// Light, for stress datasets and the pollution-tool baseline.
func Heavy() Config {
	c := Light()
	c.Typo, c.OCR, c.Phonetic = 0.15, 0.01, 0.05
	c.Abbreviation, c.TruncateTail, c.TruncateHead = 0.1, 0.05, 0.02
	c.DropToken, c.TokenTranspose, c.Format = 0.03, 0.03, 0.03
	c.Missing, c.Whitespace, c.Nickname = 0.1, 0.15, 0.05
	c.ValueConfusion, c.IntegratedValue, c.ScatteredValue = 0.02, 0.02, 0.01
	c.OutlierAge = 0.01
	return c
}

// Corruptor applies a Config to voter records using its own deterministic
// random stream. It is not safe for concurrent use; create one per
// goroutine.
type Corruptor struct {
	cfg Config
	rng *rand.Rand
}

// NewCorruptor returns a corruptor over the given stream.
func NewCorruptor(cfg Config, rng *rand.Rand) *Corruptor {
	return &Corruptor{cfg: cfg, rng: rng}
}

// nameIndices are the attributes subject to cross-attribute name errors.
var nameIndices = []int{voter.IdxFirstName, voter.IdxMiddleName, voter.IdxLastName}

// stringAttrIndices are the person attributes eligible for in-value string
// errors (names, places, street and city values).
var stringAttrIndices = []int{
	voter.IdxFirstName, voter.IdxMiddleName, voter.IdxLastName,
	voter.IdxBirthPlace, voter.IdxStreetName, voter.IdxResCity,
	voter.IdxMailAddr1,
}

// Apply corrupts r in place. Each eligible value independently suffers each
// configured in-value error with its rate; the record-level errors (value
// confusion, integration, scattering, age outlier) fire at most once per
// record.
func (c *Corruptor) Apply(r *voter.Record) {
	cfg, rng := c.cfg, c.rng
	for _, i := range stringAttrIndices {
		v := r.Values[i]
		if strings.TrimSpace(v) == "" {
			continue
		}
		// The zero-rate case must not consume a random draw: adding the
		// nickname feature would otherwise shift every downstream stream
		// and break seed-for-seed reproducibility of older configs.
		if cfg.Nickname > 0 && i == voter.IdxFirstName && rng.Float64() < cfg.Nickname {
			v = Nickname(rng, v)
		}
		if rng.Float64() < cfg.Typo {
			v = Typo(rng, v)
		}
		if rng.Float64() < cfg.OCR {
			v = OCRError(rng, v)
		}
		if rng.Float64() < cfg.Phonetic {
			v = phoneticError(rng, v)
		}
		if rng.Float64() < cfg.Abbreviation && (i == voter.IdxMiddleName || i == voter.IdxFirstName) {
			v = abbreviate(rng, v)
		}
		if rng.Float64() < cfg.TruncateTail {
			v = TruncateTail(rng, v)
		}
		if rng.Float64() < cfg.TruncateHead {
			v = truncateHead(rng, v)
		}
		if rng.Float64() < cfg.DropToken {
			v = DropToken(rng, v)
		}
		if rng.Float64() < cfg.TokenTranspose {
			v = TransposeTokens(rng, v)
		}
		if rng.Float64() < cfg.Format {
			v = FormatNoise(rng, v)
		}
		if rng.Float64() < cfg.Case {
			v = CaseNoise(rng, v)
		}
		if rng.Float64() < cfg.Missing {
			r.Values[i] = v
			makeMissing(rng, r, i)
			continue
		}
		r.Values[i] = v
	}
	if rng.Float64() < cfg.ValueConfusion {
		i := rng.Intn(len(nameIndices))
		j := rng.Intn(len(nameIndices) - 1)
		if j >= i {
			j++
		}
		confuseValues(r, nameIndices[i], nameIndices[j])
	}
	if rng.Float64() < cfg.IntegratedValue {
		into := nameIndices[rng.Intn(2)*2] // first or last name
		integrateValue(r, voter.IdxMiddleName, into)
	}
	if rng.Float64() < cfg.ScatteredValue {
		scatterValues(rng, r, voter.IdxMiddleName, voter.IdxLastName)
	}
	if rng.Float64() < cfg.OutlierAge {
		OutlierAge(rng, r)
	}
	if cfg.Whitespace > 0 {
		for _, i := range stringAttrIndices {
			if r.Values[i] != "" && rng.Float64() < cfg.Whitespace {
				r.Values[i] = whitespacePad(rng, r.Values[i])
			}
		}
	}
}
