package cli

import (
	"errors"
	"flag"
	"os"

	"chameleon/internal/rules"
)

// The rule-source flags RuleFlags can register.
const (
	RulesFlag    = 1 << iota // -rules FILE
	BuiltinFlag              // -builtin
	ExtendedFlag             // -extended
)

// RuleSource is the choice of Table 2 rule set: a rules file, the shipped
// builtin set or the shipped extended set, at most one of them.
type RuleSource struct {
	File              string
	Builtin, Extended bool
}

// RuleFlags registers the rule-source flags named by which on fs.
func RuleFlags(fs *flag.FlagSet, which int) *RuleSource {
	s := &RuleSource{}
	if which&RulesFlag != 0 {
		fs.StringVar(&s.File, "rules", "", "use this selection rules file (Fig. 4 language)")
	}
	if which&BuiltinFlag != 0 {
		fs.BoolVar(&s.Builtin, "builtin", false, "use the shipped builtin rule set")
	}
	if which&ExtendedFlag != 0 {
		fs.BoolVar(&s.Extended, "extended", false, "use the shipped extended rule set (SinglyLinkedList, open addressing)")
	}
	return s
}

// Split is the Load status that keeps the chameleon-rules contract for a
// set that does not load: Failure if the file is unreadable, BadInput if
// it does not parse, Vocab if it fails vocabulary checks.
const Split = -1

// Load resolves the source and checks the vocabulary of the chosen set
// against params (nil: rules.DefaultParams). It returns nil, nil when no
// source is set, a Usage error when more than one is, and an error with
// status (see Split) when the chosen set does not load.
func (s *RuleSource) Load(params rules.Params, status int) (*rules.RuleSet, error) {
	n := 0
	for _, set := range []bool{s.File != "", s.Builtin, s.Extended} {
		if set {
			n++
		}
	}
	if n > 1 {
		return nil, Errorf(Usage, "choose one of a rules file, -builtin or -extended")
	}
	rs, err := s.load(params)
	if err != nil && status != Split {
		err = Exit(status, err)
	}
	return rs, err
}

func (s *RuleSource) load(params rules.Params) (*rules.RuleSet, error) {
	var rs *rules.RuleSet
	switch {
	case s.Builtin:
		rs = rules.Builtin()
	case s.Extended:
		rs = rules.Extended()
	case s.File == "":
		return nil, nil
	default:
		var err error
		if rs, err = ReadRules(s.File); err != nil {
			return nil, err
		}
	}
	if params == nil {
		params = rules.DefaultParams
	}
	if errs := rules.Check(rs, params); len(errs) > 0 {
		return nil, Exit(Vocab, errors.Join(errs...))
	}
	return rs, nil
}

// Label names the chosen source in reports: the file, or <builtin> or
// <extended>.
func (s *RuleSource) Label() string {
	switch {
	case s.Builtin:
		return "<builtin>"
	case s.Extended:
		return "<extended>"
	}
	return s.File
}

// ReadRules reads and parses a rules file without checking its
// vocabulary. An unreadable file is a Failure, one that does not parse is
// BadInput.
func ReadRules(path string) (*rules.RuleSet, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs, err := rules.Parse(string(src))
	if err != nil {
		return nil, Exit(BadInput, err)
	}
	return rs, nil
}
