// Package voter defines the North Carolina voter-register schema used by the
// test-data generator: a 90-attribute record layout split into the four
// groups of the paper (person, district, election, meta), snapshot
// containers, a TSV codec matching the register's distribution format,
// value trimming, and the MD5 record hashing that drives (near-)exact
// duplicate removal (§4 of the paper).
package voter

import "fmt"

// Attribute group tags. Every attribute belongs to exactly one group; the
// paper stores each group in its own sub-document (§5).
type Group int

const (
	GroupPerson Group = iota
	GroupDistrict
	GroupElection
	GroupMeta
)

// String returns the lower-case group name used in documents.
func (g Group) String() string {
	switch g {
	case GroupPerson:
		return "person"
	case GroupDistrict:
		return "district"
	case GroupElection:
		return "election"
	case GroupMeta:
		return "meta"
	}
	return fmt.Sprintf("Group(%d)", int(g))
}

// Attribute describes one column of the register.
type Attribute struct {
	Name  string
	Group Group
}

// The person group: the 38 attributes the paper's NC1-NC3 datasets restrict
// themselves to ("most potential users are only interested in the personal
// data", §4).
var personAttrs = []string{
	"last_name", "first_name", "midl_name", "name_prefx_cd", "name_sufx_cd",
	"age", "sex_code", "sex", "race_code", "race_desc",
	"ethnic_code", "ethnic_desc", "birth_place", "phone_num", "house_num",
	"half_code", "street_dir", "street_name", "street_type_cd", "street_sufx_cd",
	"unit_designator", "unit_num", "res_city_desc", "state_cd", "zip_code",
	"mail_addr1", "mail_addr2", "mail_addr3", "mail_addr4", "mail_city",
	"mail_state", "mail_zipcode", "area_cd", "drivers_lic", "age_group",
	"party_cd", "party_desc", "county_desc",
}

// The district group: 38 attributes, sparsely populated ("millions of
// records have missing values in at least 38 attributes", §5).
var districtAttrs = []string{
	"precinct_abbrv", "precinct_desc", "municipality_abbrv", "municipality_desc",
	"ward_abbrv", "ward_desc", "cong_dist_abbrv", "cong_dist_desc",
	"super_court_abbrv", "super_court_desc", "judic_dist_abbrv", "judic_dist_desc",
	"nc_senate_abbrv", "nc_senate_desc", "nc_house_abbrv", "nc_house_desc",
	"county_commiss_abbrv", "county_commiss_desc", "township_abbrv", "township_desc",
	"school_dist_abbrv", "school_dist_desc", "fire_dist_abbrv", "fire_dist_desc",
	"water_dist_abbrv", "water_dist_desc", "sewer_dist_abbrv", "sewer_dist_desc",
	"sanit_dist_abbrv", "sanit_dist_desc", "rescue_dist_abbrv", "rescue_dist_desc",
	"munic_dist_abbrv", "munic_dist_desc", "dist_1_abbrv", "dist_1_desc",
	"dist_2_abbrv", "dist_2_desc",
}

// The election group.
var electionAttrs = []string{
	"election_dt_1", "voted_party_cd_1", "election_dt_2", "voted_party_cd_2",
	"vtd_abbrv", "vtd_desc",
}

// The meta group. ncid is the gold-standard object id; the four date
// attributes and the registration number are excluded from record hashing
// (§4: "these attributes are the different dates ... and the age").
var metaAttrs = []string{
	"ncid", "snapshot_dt", "load_dt", "registr_dt", "cancellation_dt",
	"voter_reg_num", "voter_status_desc", "voter_status_reason_desc",
}

// Attributes lists all 90 attributes in canonical column order:
// meta, person, district, election.
var Attributes = buildAttributes()

// NumAttributes is the total column count (90, matching the register).
var NumAttributes = len(Attributes)

// attrIndex maps attribute name to its column index.
var attrIndex = buildIndex()

func buildAttributes() []Attribute {
	var attrs []Attribute
	for _, n := range metaAttrs {
		attrs = append(attrs, Attribute{n, GroupMeta})
	}
	for _, n := range personAttrs {
		attrs = append(attrs, Attribute{n, GroupPerson})
	}
	for _, n := range districtAttrs {
		attrs = append(attrs, Attribute{n, GroupDistrict})
	}
	for _, n := range electionAttrs {
		attrs = append(attrs, Attribute{n, GroupElection})
	}
	if len(attrs) != 90 {
		panic(fmt.Sprintf("voter: schema has %d attributes, want 90", len(attrs)))
	}
	return attrs
}

func buildIndex() map[string]int {
	m := make(map[string]int, len(Attributes))
	for i, a := range Attributes {
		if _, dup := m[a.Name]; dup {
			panic("voter: duplicate attribute name " + a.Name)
		}
		m[a.Name] = i
	}
	return m
}

// Index returns the column index of the named attribute and whether it
// exists.
func Index(name string) (int, bool) {
	i, ok := attrIndex[name]
	return i, ok
}

// MustIndex returns the column index of the named attribute, panicking for
// unknown names. Use it for attribute names fixed at compile time.
func MustIndex(name string) int {
	i, ok := attrIndex[name]
	if !ok {
		panic("voter: unknown attribute " + name)
	}
	return i
}

// GroupIndices returns the column indices of all attributes in group g, in
// canonical order.
func GroupIndices(g Group) []int {
	var idx []int
	for i, a := range Attributes {
		if a.Group == g {
			idx = append(idx, i)
		}
	}
	return idx
}

// Names returns the attribute names at the given column indices.
func Names(indices []int) []string {
	out := make([]string, len(indices))
	for i, ix := range indices {
		out[i] = Attributes[ix].Name
	}
	return out
}

// Frequently used column indices, resolved once at init.
var (
	IdxNCID           = MustIndex("ncid")
	IdxSnapshotDate   = MustIndex("snapshot_dt")
	IdxLoadDate       = MustIndex("load_dt")
	IdxRegistrDate    = MustIndex("registr_dt")
	IdxCancellationDt = MustIndex("cancellation_dt")
	IdxVoterRegNum    = MustIndex("voter_reg_num")
	IdxLastName       = MustIndex("last_name")
	IdxFirstName      = MustIndex("first_name")
	IdxMiddleName     = MustIndex("midl_name")
	IdxAge            = MustIndex("age")
	IdxSexCode        = MustIndex("sex_code")
	IdxBirthPlace     = MustIndex("birth_place")
	IdxRaceDesc       = MustIndex("race_desc")
	IdxStreetName     = MustIndex("street_name")
	IdxResCity        = MustIndex("res_city_desc")
	IdxMailAddr1      = MustIndex("mail_addr1")
	IdxAgeGroup       = MustIndex("age_group")
)
