package coord

import (
	"sort"
	"strings"
)

// Election is the standard ZooKeeper leader-election recipe used by the SWAT
// group (§5.1): each candidate creates an ephemeral-sequential node under a
// common path; the lowest sequence number leads; on any membership change
// candidates re-evaluate. "In the case of SWAT leader failure, a new leader
// from the SWAT group is elected and takes over."
type Election struct {
	sess   *Session
	path   string
	myNode string
	events <-chan Event
	cancel func()
}

// NewElection enrols the session as a candidate under electionPath, creating
// the path if needed. name tags the candidate (diagnostics only).
func NewElection(sess *Session, electionPath, name string) (*Election, error) {
	if err := sess.EnsurePath(electionPath); err != nil {
		return nil, err
	}
	node, err := sess.Create(electionPath+"/cand-", []byte(name), FlagEphemeral|FlagSequential)
	if err != nil {
		return nil, err
	}
	events, cancel, err := sess.Watch(electionPath)
	if err != nil {
		return nil, err
	}
	return &Election{sess: sess, path: electionPath, myNode: node, events: events, cancel: cancel}, nil
}

// IsLeader reports whether this candidate currently holds leadership.
func (e *Election) IsLeader() (bool, error) {
	kids, err := e.sess.Children(e.path)
	if err != nil {
		return false, err
	}
	if len(kids) == 0 {
		return false, nil
	}
	sort.Strings(kids)
	return e.path+"/"+kids[0] == e.myNode, nil
}

// Leader reports the name of the current leader.
func (e *Election) Leader() (string, error) {
	kids, err := e.sess.Children(e.path)
	if err != nil {
		return "", err
	}
	if len(kids) == 0 {
		return "", ErrNoNode
	}
	sort.Strings(kids)
	data, err := e.sess.Get(e.path + "/" + kids[0])
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Events exposes membership-change notifications; consumers re-check
// IsLeader when one arrives.
func (e *Election) Events() <-chan Event { return e.events }

// Resign withdraws the candidacy.
func (e *Election) Resign() {
	e.cancel()
	//hydralint:ignore error-discipline best-effort resign; session expiry removes the ephemeral node regardless
	_ = e.sess.Delete(e.myNode)
}

// Node reports this candidate's election node path.
func (e *Election) Node() string { return e.myNode }

// CandidateName extracts the candidate tag from an election node path.
func CandidateName(sess *Session, nodePath string) string {
	data, err := sess.Get(nodePath)
	if err != nil {
		return ""
	}
	return string(data)
}

// IsElectionNode reports whether path is a candidate node under base.
func IsElectionNode(base, path string) bool {
	return strings.HasPrefix(path, base+"/cand-")
}
