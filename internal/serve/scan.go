package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/events"
)

// The POST /v1/events decoder (DESIGN.md §13 "Decoding"): one pass from
// request bytes to validated events.Events, with no reflection and no
// per-event allocation. It gives every body the status, code, index and
// events that decoding it into an IngestRequest with encoding/json and
// validating each element gave — that reference survives in scan_test.go,
// where FuzzIngestDecode holds the two together — except for two
// documented tightenings: a repeated top-level "events" key, and a body
// longer than MaxBodyBytes whose first value ends before the cap.

const (
	// maxInterned bounds a scanner's name cache. Site, campaign and
	// product keys of legitimate traffic are a few hundred distinct
	// names; hostile distinct names past the bound are allocated per
	// event and cannot grow the cache.
	maxInterned = 4096
	// maxNestingDepth is encoding/json's limit on open containers. Only
	// the values of unknown keys can nest at all.
	maxNestingDepth = 10000
	// maxPooledBody is the largest body buffer a scanner keeps between
	// requests, so one 4 MiB body does not pin 4 MiB per pooled scanner.
	maxPooledBody = 1 << 20
	// kindUnset marks an event whose kind is missing or not one of the two
	// kinds; validateEvent refuses it.
	kindUnset = events.Kind(0xff)
)

// eventScanner holds what decoding one ingest request reuses from the
// last: the body buffer, the decoded events, the name cache and scratch
// space. A scanner serves one request at a time and lives in scannerPool
// between requests.
//
// Names become symbols only as the handler admits their events, because
// the process's symbol table is never freed. The scan leaves every event's
// names zero and records them in refs; a name the scanner has not seen
// waits in names[fresh:] until withNames interns it for an admitted event.
// settle keeps the names that were interned and forgets the rest: those of
// a refused body, of duplicates and of a backpressured suffix.
type eventScanner struct {
	body   bytes.Buffer
	events []events.Event
	refs   []eventNames            // parallel to events
	cache  map[string]int32        // name → index in names
	names  []scanName              // the empty name, the cached names, this body's new ones
	fresh  int                     // names[:fresh] are interned
	memo   [4][memoSlots]int32     // per name field, the last name of each memo slot in this body, as an index into names
	unq    []byte                  // the last string that needed unquoting
	fold   [len("advertiser")]byte // the last key that needed folding
	stack  []byte                  // open containers of the unknown value being skipped

	data         []byte
	pos          int
	durationDays int
	count        int           // elements of "events" seen, stored or not
	invalid      *RequestError // the first validation error: the lowest index
	malformed    *RequestError

	mutant mutation
}

// mutation plants one decoder bug in a scanner, for the test showing that
// the differential oracle catches such bugs. A served scanner's is zero.
type mutation uint8

const (
	mutantNone           mutation = iota
	mutantExactKeys               // keys match in exact case only
	mutantRawEscapes              // an escaped string is passed through undecoded
	mutantFirstErrorWins          // an invalid event outranks malformed JSON after it
	mutantNullZeroes              // a null field zeroes what earlier keys set
)

// scanName is one name the scanner has seen, and its symbol once interned.
type scanName struct {
	name string
	sym  events.Sym
}

// eventNames is one event's publisher, advertiser, campaign and product as
// indices into eventScanner.names; 0 is the empty name.
type eventNames [4]int32

func newScanner() *eventScanner {
	return &eventScanner{cache: make(map[string]int32), names: make([]scanName, 1), fresh: 1}
}

var scannerPool = sync.Pool{New: func() any { return newScanner() }}

// release returns the scanner to the pool, forgetting the body's names
// that no admitted event interned. The events it decoded must not be read
// afterwards.
func (sc *eventScanner) release() {
	sc.settle()
	if sc.body.Cap() > maxPooledBody {
		sc.body = bytes.Buffer{}
	}
	sc.data = nil
	scannerPool.Put(sc)
}

// readEvents reads the capped body of a POST /v1/events and decodes it.
// The events are valid until release and carry no names: withNames(i)
// returns event i with its names.
func (sc *eventScanner) readEvents(w http.ResponseWriter, r *http.Request, durationDays int) ([]events.Event, int, *RequestError) {
	sc.body.Reset()
	if n := r.ContentLength; n > 0 && n <= MaxBodyBytes {
		sc.body.Grow(int(n) + bytes.MinRead)
	}
	// Tightening: the whole body is read before any of it is decoded, so a
	// body over the cap is a 413 even where its first value ends early.
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				reqErr(CodeBodyTooLarge, "body exceeds %d bytes", MaxBodyBytes)
		}
		return nil, http.StatusBadRequest, reqErr(CodeMalformedJSON, "reading body: %v", err)
	}
	evs, rerr := sc.scan(sc.body.Bytes(), durationDays)
	if rerr != nil {
		return nil, http.StatusBadRequest, rerr
	}
	return evs, 0, nil
}

// scan decodes the first JSON value of data as an ingest request: an
// object whose "events" member is an array of event objects. Bytes after
// the value are ignored, and null is accepted for the body, for "events",
// for an element (an event with nothing set, which fails validation) and
// for a field (which keeps its value).
//
// Errors keep the reflective path's precedence: malformed JSON — a syntax
// error, or a value of the wrong JSON type for its field — anywhere in the
// value, then too many events, then the lowest-indexed invalid event. So
// the scan does not stop at the first invalid event: it goes on checking
// syntax and types to the end of the value. A refused body's names are
// forgotten at once.
func (sc *eventScanner) scan(data []byte, durationDays int) ([]events.Event, *RequestError) {
	sc.data, sc.pos, sc.durationDays = data, 0, durationDays
	sc.events, sc.refs = sc.events[:0], sc.refs[:0]
	clear(sc.memo[:]) // settle renumbered the names the last body's memo held
	sc.count, sc.invalid, sc.malformed = 0, nil, nil
	if rerr := sc.scanBody(); rerr != nil {
		sc.settle()
		return nil, rerr
	}
	return sc.events, nil
}

// scanBody scans data, returning the error that refuses it, if any.
func (sc *eventScanner) scanBody() *RequestError {
	var ok bool
	switch sc.peek() {
	case 'n':
		ok = sc.literal("null")
	case '{':
		ok = sc.request()
	case 0:
		ok = sc.fail("no JSON value")
	default:
		ok = sc.fail("body is not a JSON object")
	}
	switch {
	case !ok && !(sc.mutant == mutantFirstErrorWins && sc.invalid != nil):
		return sc.malformed
	case sc.count > MaxBatchEvents:
		return reqErr(CodeTooManyEvents, "%d events exceed the %d per-request cap",
			sc.count, MaxBatchEvents)
	}
	return sc.invalid
}

// withNames returns decoded event i with its names, interning those of
// them the table does not hold yet. The handler calls it only for an event
// it admits.
func (sc *eventScanner) withNames(i int) events.Event {
	ev := sc.events[i]
	var syms [4]events.Sym
	for j, k := range sc.refs[i] {
		if n := &sc.names[k]; n.sym == (events.Sym{}) && n.name != "" {
			n.sym = events.Intern(n.name)
		}
		syms[j] = sc.names[k].sym
	}
	ev.Publisher, ev.Advertiser, ev.Campaign, ev.Product = syms[0], syms[1], syms[2], syms[3]
	return ev
}

// settle ends a body: of its new names, it keeps the cached ones that an
// admitted event interned, renumbered after the interned names, and
// forgets the rest, so the cache only ever holds interned names.
func (sc *eventScanner) settle() {
	kept := sc.fresh
	for _, n := range sc.names[sc.fresh:] {
		if _, cached := sc.cache[n.name]; !cached {
			continue // past maxInterned, or a second copy of an uncached name
		}
		if n.sym == (events.Sym{}) {
			delete(sc.cache, n.name)
			continue
		}
		sc.cache[n.name] = int32(kept)
		sc.names[kept] = n
		kept++
	}
	sc.truncateNames(kept)
}

// truncateNames keeps names[:n] as the interned names, clearing the rest so
// the pooled scanner does not keep their strings alive.
func (sc *eventScanner) truncateNames(n int) {
	clear(sc.names[n:])
	sc.names, sc.fresh = sc.names[:n], n
}

// memoSlots is the number of names a name field's memo holds: a body's
// campaigns and products are a handful of names, which mostly differ in
// their length or last byte.
const memoSlots = 16

// fieldName returns the index in names of s, the value of name field j
// (publisher, advertiser, campaign or product). The field's memo slot for
// s's length and last byte holds the last name this body gave the field
// there; when s is that name again, as it mostly is, the name cache is not
// consulted.
func (sc *eventScanner) fieldName(j int, s []byte) int32 {
	if len(s) == 0 {
		return 0
	}
	slot := &sc.memo[j][(len(s)+int(s[len(s)-1]))%memoSlots]
	if i := *slot; string(s) == sc.names[i].name {
		return i
	}
	i := sc.name(s)
	*slot = i
	return i
}

// name returns s's index in names, adding s (and, below the bound, caching
// it) when the scanner has not seen it.
func (sc *eventScanner) name(s []byte) int32 {
	if len(s) == 0 {
		return 0
	}
	if i, ok := sc.cache[string(s)]; ok {
		return i
	}
	i, n := int32(len(sc.names)), string(s)
	sc.names = append(sc.names, scanName{name: n})
	if len(sc.cache) < maxInterned {
		sc.cache[n] = i
	}
	return i
}

// fail records the malformed-JSON error at the current offset and returns
// false, as every parsing method does from then on.
func (sc *eventScanner) fail(what string) bool {
	sc.malformed = reqErr(CodeMalformedJSON, "decoding body: %s at byte %d", what, sc.pos)
	return false
}

// peek skips whitespace and returns the next byte without consuming it, or
// 0 at the end of data — a byte that is valid nowhere outside a string, so
// callers need no separate end check.
func (sc *eventScanner) peek() byte {
	for sc.pos < len(sc.data) {
		// Every byte above the space is not whitespace.
		if c := sc.data[sc.pos]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		sc.pos++
	}
	return 0
}

// key parses `"key" :` up to the colon. The key is unquoted and valid
// until the next string is parsed.
func (sc *eventScanner) key() ([]byte, bool) {
	if sc.peek() != '"' {
		return nil, sc.fail("expected an object key")
	}
	key, ok := sc.str()
	if !ok {
		return nil, false
	}
	if sc.peek() != ':' {
		return nil, sc.fail("expected ':' after an object key")
	}
	sc.pos++
	return key, true
}

// next consumes what follows a member or element: a comma (more follow) or
// the container's closing byte.
func (sc *eventScanner) next(closing byte) (more, ok bool) {
	switch c := sc.peek(); c {
	case ',':
		sc.pos++
		return true, true
	case closing:
		sc.pos++
		return false, true
	}
	return false, sc.fail("expected ',' or '" + string(closing) + "'")
}

// request parses the top-level object at pos: "events" once at most, and
// unknown keys.
func (sc *eventScanner) request() bool {
	sc.pos++ // {
	if sc.peek() == '}' {
		sc.pos++
		return true
	}
	sawEvents := false
	for more := true; more; {
		key, ok := sc.key()
		if !ok {
			return false
		}
		isEvents := sc.named(key, "events") // before the value reuses key's storage
		switch c := sc.peek(); {
		case !isEvents:
			ok = sc.skipValue(1)
		case sawEvents:
			// Tightening: encoding/json decoded a second "events" array
			// over the elements of the first, field by field.
			ok = sc.fail(`repeated "events" key`)
		case c == 'n':
			ok = sc.literal("null")
		case c == '[':
			ok = sc.eventsArray()
		default:
			ok = sc.fail(`"events" is not an array`)
		}
		if !ok {
			return false
		}
		sawEvents = sawEvents || isEvents
		if more, ok = sc.next('}'); !ok {
			return false
		}
	}
	return true
}

// eventsArray parses the array at pos, validating each element as it is
// decoded. Elements stop being stored in sc.events once one is invalid or
// MaxBatchEvents are held, but are still counted and checked for syntax
// and types.
func (sc *eventScanner) eventsArray() bool {
	sc.pos++ // [
	if sc.peek() == ']' {
		sc.pos++
		return true
	}
	for more := true; more; sc.count++ {
		storing := sc.invalid == nil && sc.count < MaxBatchEvents
		var discard events.Event
		var refs eventNames
		ev := &discard
		if storing {
			sc.events = append(sc.events, events.Event{})
			ev = &sc.events[len(sc.events)-1]
		}
		if !sc.event(ev, &refs) {
			return false
		}
		if storing {
			names := [4]string{sc.names[refs[0]].name, sc.names[refs[1]].name,
				sc.names[refs[2]].name, sc.names[refs[3]].name}
			if sc.invalid = validateEvent(ev, &names, sc.durationDays); sc.invalid != nil {
				sc.invalid.Index = sc.count
				sc.events = sc.events[:len(sc.events)-1]
			} else {
				sc.refs = append(sc.refs, refs)
			}
		}
		var ok bool
		if more, ok = sc.next(']'); !ok {
			return false
		}
	}
	return true
}

// Event fields on the wire, in EventWire's order.
type eventField uint8

const (
	fieldUnknown eventField = iota
	fieldID
	fieldKind
	fieldDevice
	fieldDay
	fieldPublisher
	fieldAdvertiser
	fieldCampaign
	fieldProduct
	fieldValue
)

// fieldNames are the wire names, by field.
var fieldNames = [...]string{fieldID: "id", fieldKind: "kind", fieldDevice: "device", fieldDay: "day",
	fieldPublisher: "publisher", fieldAdvertiser: "advertiser", fieldCampaign: "campaign",
	fieldProduct: "product", fieldValue: "value"}

// exactKey is a wire name as an encoder writes it as a key, from after the
// opening quote to the colon: its bytes as two little-endian words, with a
// mask of the bytes each word holds, and its length.
type exactKey struct {
	lo, hi, loMask, hiMask uint64
	n                      int
}

// exactKeys are the fields' exact keys, by field.
var exactKeys = func() (keys [len(fieldNames)]exactKey) {
	for f, name := range fieldNames[1:] {
		var b, mask [16]byte
		n := copy(b[:], name+`":`)
		copy(mask[:n], bytes.Repeat([]byte{0xff}, n))
		keys[f+1] = exactKey{
			lo: binary.LittleEndian.Uint64(b[:]), hi: binary.LittleEndian.Uint64(b[8:]),
			loMask: binary.LittleEndian.Uint64(mask[:]), hiMask: binary.LittleEndian.Uint64(mask[8:]),
			n: n,
		}
	}
	return keys
}()

// keyField is the field an exact key starting with each byte can be; a key
// starting with "d" or "p" can be one of two, told apart by its second byte.
var keyField = [256]eventField{'i': fieldID, 'k': fieldKind, 'd': fieldDevice, 'p': fieldPublisher,
	'a': fieldAdvertiser, 'c': fieldCampaign, 'v': fieldValue}

// eventFieldNamed maps an exact wire name to its field.
func eventFieldNamed(name []byte) eventField {
	for f, n := range fieldNames[1:] {
		if string(name) == n {
			return eventField(f + 1)
		}
	}
	return fieldUnknown
}

// eventKey parses an event object's key up to the colon and returns the
// field it selects. A key written exactly as its wire name with the colon
// right after it, as encoders write keys, is matched in place: its first
// byte (and, for "d" and "p", its second) names the one field it can be,
// and one compare of the next sixteen bytes against that field's exact key
// settles it. Every other key — spaced from its colon, escaped, in another
// case, unknown, or within sixteen bytes of the end of the body — is parsed
// by key and matched exactly or folded.
func (sc *eventScanner) eventKey() (eventField, bool) {
	if sc.peek() == '"' && sc.pos+17 <= len(sc.data) {
		lo := binary.LittleEndian.Uint64(sc.data[sc.pos+1:])
		hi := binary.LittleEndian.Uint64(sc.data[sc.pos+9:])
		f := keyField[byte(lo)]
		switch second := byte(lo >> 8); {
		case f == fieldDevice && second == 'a':
			f = fieldDay
		case f == fieldPublisher && second == 'r':
			f = fieldProduct
		}
		if k := &exactKeys[f]; f != fieldUnknown && lo&k.loMask == k.lo && hi&k.hiMask == k.hi {
			sc.pos += 1 + k.n
			return f, true
		}
	}
	key, ok := sc.key()
	if !ok {
		return fieldUnknown, false
	}
	f := eventFieldNamed(key)
	if f == fieldUnknown {
		f = eventFieldNamed(sc.folded(key))
	}
	return f, true
}

// event decodes the element at pos into *ev and *refs, which are zero: an
// object or null. A repeated key overwrites, a null field changes nothing,
// unknown keys are skipped, and a value of the wrong JSON type for its
// field — a string for a number, a fraction for an integer — is malformed.
func (sc *eventScanner) event(ev *events.Event, refs *eventNames) bool {
	ev.Kind = kindUnset
	switch sc.peek() {
	case 'n':
		return sc.literal("null")
	case '{':
	default:
		return sc.fail("an event is not an object")
	}
	sc.pos++ // {
	if sc.peek() == '}' {
		sc.pos++
		return true
	}
	for more := true; more; {
		f, ok := sc.eventKey()
		if !ok {
			return false
		}
		switch c := sc.peek(); {
		case f == fieldUnknown:
			ok = sc.skipValue(3)
		case c == 'n':
			if ok = sc.literal("null"); sc.mutant == mutantNullZeroes {
				*ev, *refs = events.Event{Kind: kindUnset}, eventNames{}
			}
		case f == fieldID || f == fieldDevice:
			var n uint64
			var negative bool
			if n, negative, ok = sc.integer(); ok && negative {
				ok = sc.fail("negative number in an unsigned field")
			}
			if f == fieldID {
				ev.ID = events.EventID(n)
			} else {
				ev.Device = events.DeviceID(n)
			}
		case f == fieldDay:
			var n uint64
			var negative bool
			n, negative, ok = sc.integer()
			switch {
			case !ok:
			case negative && n <= -math.MinInt:
				ev.Day = -int(n)
			case !negative && n <= math.MaxInt:
				ev.Day = int(n)
			default:
				ok = sc.fail("number overflows an integer field")
			}
		case f == fieldValue:
			ev.Value, ok = sc.float()
		case c != '"':
			ok = sc.fail("expected a string")
		default:
			var s []byte
			if s, ok = sc.str(); !ok {
				break
			}
			switch f {
			case fieldKind:
				switch string(s) {
				case "impression":
					ev.Kind = events.KindImpression
				case "conversion":
					ev.Kind = events.KindConversion
				default:
					ev.Kind = kindUnset
				}
			case fieldPublisher, fieldAdvertiser, fieldCampaign, fieldProduct:
				refs[f-fieldPublisher] = sc.fieldName(int(f-fieldPublisher), s)
			}
		}
		if !ok {
			return false
		}
		if more, ok = sc.next('}'); !ok {
			return false
		}
	}
	return true
}

// named reports whether an object key selects the field with the given
// lower-case ASCII name: exactly, or under encoding/json's case folding.
func (sc *eventScanner) named(key []byte, name string) bool {
	return string(key) == name || string(sc.folded(key)) == name
}

// folded returns the lower-case ASCII name key folds to, or nil when it
// folds to nothing that could be a field's name. It is valid until the
// next call.
func (sc *eventScanner) folded(key []byte) []byte {
	if sc.mutant == mutantExactKeys {
		return nil
	}
	name, _ := foldName(sc.fold[:0], key)
	return name
}

// foldName appends to dst the lower-case ASCII name that key equals under
// encoding/json's key folding (Unicode simple folding, so "\u212aind" is
// "kind"), up to cap(dst) bytes. ok is false when key folds to no ASCII
// name that short, and so matches no field.
func foldName(dst, key []byte) (name []byte, ok bool) {
	for i := 0; i < len(key); {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || len(dst) == cap(dst) {
			return nil, false
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		dst = append(dst, byte(r))
		i += size
	}
	return dst, true
}

// foldRune returns the smallest rune of r's simple-fold orbit, which is
// what encoding/json compares keys by: SimpleFold steps upwards through
// the orbit and wraps around to it.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// literal consumes the given literal at pos.
func (sc *eventScanner) literal(lit string) bool {
	end := sc.pos + len(lit)
	if end > len(sc.data) || string(sc.data[sc.pos:end]) != lit {
		return sc.fail("invalid literal")
	}
	sc.pos = end
	return true
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (sc *eventScanner) digits() bool {
	start := sc.pos
	for sc.pos < len(sc.data) && '0' <= sc.data[sc.pos] && sc.data[sc.pos] <= '9' {
		sc.pos++
	}
	return sc.pos > start
}

// number consumes the JSON number at pos and reports whether it is an
// integer literal: no fraction and no exponent.
func (sc *eventScanner) number() (integer, ok bool) {
	if sc.pos < len(sc.data) && sc.data[sc.pos] == '-' {
		sc.pos++
	}
	if sc.pos < len(sc.data) && sc.data[sc.pos] == '0' {
		sc.pos++
	} else if !sc.digits() {
		return false, sc.fail("invalid number")
	}
	integer = true
	if sc.pos < len(sc.data) && sc.data[sc.pos] == '.' {
		sc.pos++
		if integer = false; !sc.digits() {
			return false, sc.fail("invalid number")
		}
	}
	if sc.pos < len(sc.data) && (sc.data[sc.pos] == 'e' || sc.data[sc.pos] == 'E') {
		sc.pos++
		if sc.pos < len(sc.data) && (sc.data[sc.pos] == '+' || sc.data[sc.pos] == '-') {
			sc.pos++
		}
		if integer = false; !sc.digits() {
			return false, sc.fail("invalid number")
		}
	}
	return integer, true
}

// plainInteger parses, in one pass, an integer literal at pos of at most 19
// digits — which cannot overflow — with no leading zero and no fraction or
// exponent after it, and consumes it. It consumes nothing and returns false
// on anything else, which integer parses with number.
func (sc *eventScanner) plainInteger() (magnitude uint64, negative, ok bool) {
	p := sc.pos
	if p < len(sc.data) && sc.data[p] == '-' {
		negative = true
		p++
	}
	start := p
	for ; p < len(sc.data) && p-start < 19; p++ {
		d := sc.data[p] - '0'
		if d > 9 {
			break
		}
		magnitude = magnitude*10 + uint64(d)
	}
	switch n := p - start; {
	case n == 0, n > 1 && sc.data[start] == '0':
		return 0, false, false
	case p < len(sc.data) && numberContinues[sc.data[p]]:
		return 0, false, false
	}
	sc.pos = p
	return magnitude, negative, true
}

// numberContinues marks the bytes that continue a JSON number after a run
// of digits.
var numberContinues = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true,
	'5': true, '6': true, '7': true, '8': true, '9': true, '.': true, 'e': true, 'E': true}

// integer parses the number at pos for an integer field and returns its
// magnitude and sign. As with encoding/json, anything but an integer
// literal is malformed: 1.0, 1e2 and "7" all are.
func (sc *eventScanner) integer() (magnitude uint64, negative, ok bool) {
	if magnitude, negative, ok = sc.plainInteger(); ok {
		return magnitude, negative, true
	}
	start := sc.pos
	integer, ok := sc.number()
	if !ok {
		return 0, false, false
	}
	lit := sc.data[start:sc.pos]
	if negative = lit[0] == '-'; negative {
		lit = lit[1:]
	}
	if !integer {
		return 0, false, sc.fail("fraction or exponent in an integer field")
	}
	for _, c := range lit {
		d := uint64(c - '0')
		if magnitude > (math.MaxUint64-d)/10 {
			return 0, false, sc.fail("number overflows an integer field")
		}
		magnitude = magnitude*10 + d
	}
	return magnitude, negative, true
}

// float parses the number at pos as encoding/json does, through
// strconv.ParseFloat; a number out of float64's range is malformed.
func (sc *eventScanner) float() (float64, bool) {
	start := sc.pos
	if _, ok := sc.number(); !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(sc.data[start:sc.pos]), 64)
	if err != nil {
		return 0, sc.fail("number is out of range")
	}
	return v, true
}

// plainStringByte marks the bytes a JSON string holds as themselves:
// printable ASCII other than the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Eight-byte words for plainPrefix: a byte of ones in every lane, and the top
// bit of every lane.
const (
	laneOnes = 0x0101010101010101
	laneTops = 0x8080808080808080
)

// plainPrefix returns the number of plain bytes (plainStringByte) that the
// eight bytes of w, read little-endian, start with. Each byte's lane gets its
// top bit set when the byte is below 0x20 — x-0x20 borrows into the top
// bit, which x itself does not have — when it is '"' or '\' — x XOR the
// byte is zero, and zero minus one borrows likewise — or when its own top
// bit is set. A borrow starts only at a byte that is not plain and carries
// only into the lanes above it, so the lowest lane flagged is the first byte
// that is not plain.
func plainPrefix(w uint64) int {
	quote, backslash := w^(laneOnes*'"'), w^(laneOnes*'\\')
	special := (w-laneOnes*0x20)&^w | (quote-laneOnes)&^quote | (backslash-laneOnes)&^backslash
	return bits.TrailingZeros64((special|w)&laneTops) / 8
}

// str parses the string whose opening quote is at pos and returns its
// value: a view of the body when the string holds only plain bytes,
// otherwise sc.unq with escapes decoded and invalid UTF-8 replaced by
// U+FFFD. Either is valid until the next call. Plain bytes are passed over
// eight at a time while eight remain, then one at a time.
func (sc *eventScanner) str() ([]byte, bool) {
	sc.pos++ // "
	start := sc.pos
	for sc.pos+8 <= len(sc.data) {
		n := plainPrefix(binary.LittleEndian.Uint64(sc.data[sc.pos:]))
		if sc.pos += n; n < 8 {
			break
		}
	}
	for sc.pos < len(sc.data) && plainStringByte[sc.data[sc.pos]] {
		sc.pos++
	}
	if sc.pos < len(sc.data) && sc.data[sc.pos] == '"' {
		sc.pos++
		return sc.data[start : sc.pos-1], true
	}
	out := append(sc.unq[:0], sc.data[start:sc.pos]...)
	for sc.pos < len(sc.data) {
		c := sc.data[sc.pos]
		switch {
		case c == '"':
			sc.pos++
			if sc.unq = out; sc.mutant == mutantRawEscapes {
				return sc.data[start : sc.pos-1], true
			}
			return out, true
		case c == '\\':
			r, ok := sc.escape()
			if !ok {
				return nil, false
			}
			out = utf8.AppendRune(out, r)
		case c < ' ':
			return nil, sc.fail("control character in a string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			sc.pos++
		default:
			r, size := utf8.DecodeRune(sc.data[sc.pos:])
			out = utf8.AppendRune(out, r)
			sc.pos += size
		}
	}
	return nil, sc.fail("unterminated string")
}

// escape decodes the escape sequence whose backslash is at pos. Half a
// surrogate pair takes its other half with it when that follows, and is
// U+FFFD when it does not.
func (sc *eventScanner) escape() (rune, bool) {
	rest := sc.data[sc.pos:]
	if len(rest) < 2 {
		return 0, sc.fail("unterminated string")
	}
	sc.pos += 2
	switch rest[1] {
	case '"', '\\', '/':
		return rune(rest[1]), true
	case 'b':
		return '\b', true
	case 'f':
		return '\f', true
	case 'n':
		return '\n', true
	case 'r':
		return '\r', true
	case 't':
		return '\t', true
	case 'u':
		r := getu4(rest)
		if r < 0 {
			break
		}
		sc.pos += 4
		if utf16.IsSurrogate(r) {
			pair := utf16.DecodeRune(r, getu4(sc.data[sc.pos:]))
			if pair == unicode.ReplacementChar {
				return pair, true
			}
			r = pair
			sc.pos += 6
		}
		return r, true
	}
	sc.pos -= 2
	return 0, sc.fail("invalid escape in a string")
}

// getu4 decodes the \uXXXX at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipValue checks the syntax of the value at pos, of any type, and
// consumes it: the value of an unknown key. depth is the number of
// containers already open around it.
func (sc *eventScanner) skipValue(depth int) bool {
	sc.stack = sc.stack[:0] // the closing byte of each container open inside
	for {
		// A value starts here.
		ok := true
		switch c := sc.peek(); {
		case c == '{' || c == '[':
			if depth+len(sc.stack) >= maxNestingDepth {
				return sc.fail("exceeded max depth")
			}
			sc.pos++
			closing := c + 2 // } or ]
			if sc.peek() == closing {
				sc.pos++
				break
			}
			sc.stack = append(sc.stack, closing)
			if c == '{' {
				if _, ok = sc.key(); !ok {
					return false
				}
			}
			continue
		case c == '"':
			_, ok = sc.str()
		case c == '-' || ('0' <= c && c <= '9'):
			_, ok = sc.number()
		case c == 't':
			ok = sc.literal("true")
		case c == 'f':
			ok = sc.literal("false")
		case c == 'n':
			ok = sc.literal("null")
		default:
			ok = sc.fail("expected a value")
		}
		if !ok {
			return false
		}
		// A value ended here: close every container it was last in.
		for more := false; !more; {
			if len(sc.stack) == 0 {
				return true
			}
			closing := sc.stack[len(sc.stack)-1]
			if more, ok = sc.next(closing); !ok {
				return false
			}
			if !more {
				sc.stack = sc.stack[:len(sc.stack)-1]
			} else if closing == '}' {
				if _, ok = sc.key(); !ok {
					return false
				}
			}
		}
	}
}

// validateEvent checks one decoded event against the served trace's
// bounds: the one validator of the ingest path. durationDays bounds the
// day index: the service's epoch arithmetic is int32 and its day clock
// never runs past the trace, so an out-of-range day is hostile by
// construction. names holds the event's publisher, advertiser, campaign and
// product, which ev does not carry yet. The returned error's Index is for
// the caller to set.
func validateEvent(ev *events.Event, names *[4]string, durationDays int) *RequestError {
	pub, adv, camp, prod := names[0], names[1], names[2], names[3]
	if ev.Kind != events.KindImpression && ev.Kind != events.KindConversion {
		return reqErr(CodeBadKind, "kind must be %q or %q",
			events.KindImpression, events.KindConversion)
	}
	if ev.ID == 0 {
		return reqErr(CodeBadID, "event id must be positive")
	}
	if ev.Day < 0 || ev.Day >= durationDays {
		return reqErr(CodeBadDay, "day %d outside trace [0, %d)", ev.Day, durationDays)
	}
	if adv == "" || len(adv) > maxSiteLen {
		return reqErr(CodeBadSite, "advertiser must be 1..%d bytes", maxSiteLen)
	}
	if len(pub) > maxSiteLen || len(camp) > maxSiteLen {
		return reqErr(CodeBadSite, "publisher/campaign keys must be at most %d bytes", maxSiteLen)
	}
	if len(prod) > maxSiteLen {
		return reqErr(CodeBadProduct, "product key must be at most %d bytes", maxSiteLen)
	}
	if ev.IsConversion() {
		if prod == "" {
			return reqErr(CodeBadProduct, "conversion without a product key")
		}
		// A JSON number is never NaN and float() refuses what overflows, so
		// the range check is the whole check.
		if ev.Value < 0 || ev.Value > maxEventValue {
			return reqErr(CodeBadValue, "conversion value must be in [0, %g]", maxEventValue)
		}
	} else if ev.Value != 0 {
		return reqErr(CodeBadValue, "impression with a conversion value")
	}
	return nil
}
