//! Actions of the proved semantics and their firing.

use std::sync::Arc;

use spi_addr::{Branch, Path, ProcTree};

use crate::place::{place, Subst};
use crate::{Config, LeafState, MachineError, RtChanIndex, RtTerm};

/// An action the proved semantics offers in a configuration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// An internal communication between an output leaf and an input leaf.
    Comm {
        /// Position of the sender.
        out_path: Path,
        /// Position of the receiver.
        in_path: Path,
    },
    /// One unfolding of a replication: `!P` becomes `P | !P` in place.
    Unfold {
        /// Position of the replication leaf.
        path: Path,
    },
}

/// What happened during a communication — the payload of the proved
/// transition label, used by narrators and explorers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommInfo {
    /// The sender's position (the `‖…` proof part of the output).
    pub sender: Path,
    /// The receiver's position.
    pub receiver: Path,
    /// The channel subject the synchronization happened on.
    pub subject: RtTerm,
    /// The transmitted message, creator-stamped.
    pub payload: RtTerm,
}

/// The result of firing an [`Action`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepInfo {
    /// A communication fired.
    Comm(CommInfo),
    /// A replication unfolded.
    Unfold {
        /// Position of the replication before unfolding (the fresh copy
        /// now lives at `path·‖0`).
        path: Path,
    },
}

/// Does this localization index let `partner` synchronize?
pub(crate) fn index_allows(index: &RtChanIndex, partner: &Path) -> bool {
    match index {
        RtChanIndex::Plain | RtChanIndex::Loc(_) => true,
        RtChanIndex::AtAbs(q) => q == partner,
        // A literal that failed to resolve at its leaf can never fire.
        RtChanIndex::At(_) => false,
    }
}

impl Config {
    /// Enumerates the enabled actions: every internal communication the
    /// localization discipline admits, plus one unfolding per replication
    /// leaf that has spawned fewer than `unfold_bound` copies.
    #[must_use]
    pub fn enabled(&self, unfold_bound: u32) -> Vec<Action> {
        let mut outs = Vec::new();
        let mut ins = Vec::new();
        let mut actions = Vec::new();
        for (path, leaf) in self.tree.leaves() {
            match leaf {
                LeafState::Out { chan, .. } => outs.push((path, chan)),
                LeafState::In { chan, .. } => ins.push((path, chan)),
                LeafState::Bang { unfolded, .. } => {
                    if *unfolded < unfold_bound {
                        actions.push(Action::Unfold { path });
                    }
                }
                LeafState::Dead => {}
            }
        }
        for (op, oc) in &outs {
            for (ip, ic) in &ins {
                if op == ip {
                    continue;
                }
                if oc.subject == ic.subject
                    && index_allows(&oc.index, ip)
                    && index_allows(&ic.index, op)
                {
                    actions.push(Action::Comm {
                        out_path: op.clone(),
                        in_path: ip.clone(),
                    });
                }
            }
        }
        actions
    }

    /// Fires one action.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NotEnabled`] when the action is not offered
    /// by the current configuration, and placement errors from the
    /// continuations.
    pub fn fire(&mut self, action: &Action) -> Result<StepInfo, MachineError> {
        match action {
            Action::Comm { out_path, in_path } => {
                // Validate both sides before mutating anything.
                let LeafState::Out { chan: oc, .. } = self.tree.leaf_at(out_path)? else {
                    return Err(MachineError::NotALeaf {
                        path: out_path.clone(),
                    });
                };
                let LeafState::In { chan: ic, .. } = self.tree.leaf_at(in_path)? else {
                    return Err(MachineError::NotALeaf {
                        path: in_path.clone(),
                    });
                };
                if oc.subject != ic.subject {
                    return Err(MachineError::NotEnabled {
                        reason: "channel subjects differ".into(),
                    });
                }
                if !index_allows(&oc.index, in_path) || !index_allows(&ic.index, out_path) {
                    return Err(MachineError::NotEnabled {
                        reason: "localization forbids this pairing".into(),
                    });
                }
                let info = self.take_output(out_path, in_path)?;
                // The payload is stamped already: stamping again with the
                // same sender changes nothing.
                self.receive(in_path, &info.payload, out_path)?;
                Ok(StepInfo::Comm(info))
            }
            Action::Unfold { path } => self.unfold(path),
        }
    }

    /// Consumes the output at `out_path`, as received by a partner at
    /// `receiver`: checks the localization discipline, stamps the payload
    /// with its creator, instantiates the sender's location variable (if
    /// any) to `receiver`, and places the continuation.
    ///
    /// Explorers use this directly to model an intruder *intercepting* a
    /// message (the partner being the intruder's position).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NotALeaf`] when `out_path` is not an output
    /// leaf and [`MachineError::NotEnabled`] when its localization refuses
    /// `receiver`.
    pub fn take_output(
        &mut self,
        out_path: &Path,
        receiver: &Path,
    ) -> Result<CommInfo, MachineError> {
        let LeafState::Out {
            chan,
            payload,
            cont,
        } = self.tree.leaf_at(out_path)?
        else {
            return Err(MachineError::NotALeaf {
                path: out_path.clone(),
            });
        };
        if !index_allows(&chan.index, receiver) {
            return Err(MachineError::NotEnabled {
                reason: format!("output localization at {out_path} refuses partner {receiver}"),
            });
        }
        let mut payload = payload.clone();
        payload.stamp(out_path);
        let subject = chan.subject.clone();
        let subst = Subst::EMPTY.with_loc(&chan.index, receiver);
        let placed = place(cont, &subst, out_path.clone(), &mut self.names)?;
        Arc::make_mut(&mut self.tree).replace(out_path, placed)?;
        Ok(CommInfo {
            sender: out_path.clone(),
            receiver: receiver.clone(),
            subject,
            payload,
        })
    }

    /// Delivers `payload` to the input at `in_path` as if sent by the
    /// process at `sender`: checks the localization discipline, stamps the
    /// payload with `sender` (an intruder-built composite becomes the
    /// intruder's), instantiates the receiver's location variable (if any)
    /// to `sender`, substitutes, and places the continuation.
    ///
    /// Explorers use this directly to model an intruder *injecting* a
    /// message.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NotALeaf`] when `in_path` is not an input
    /// leaf, [`MachineError::NotAMessage`] for a non-message payload, and
    /// [`MachineError::NotEnabled`] when the localization refuses
    /// `sender`.
    pub fn deliver(
        &mut self,
        in_path: &Path,
        mut payload: RtTerm,
        sender: Path,
    ) -> Result<StepInfo, MachineError> {
        if !payload.is_message() {
            return Err(MachineError::NotAMessage {
                term: payload.display(&self.names),
            });
        }
        payload.stamp(&sender);
        let subject = self.receive(in_path, &payload, &sender)?;
        Ok(StepInfo::Comm(CommInfo {
            sender,
            receiver: in_path.clone(),
            subject,
            payload,
        }))
    }

    /// The receiving half of [`Config::deliver`], for a stamped message:
    /// checks the localization, places the continuation with the payload
    /// bound, and returns the channel subject.
    fn receive(
        &mut self,
        in_path: &Path,
        payload: &RtTerm,
        sender: &Path,
    ) -> Result<RtTerm, MachineError> {
        let LeafState::In { chan, var, cont } = self.tree.leaf_at(in_path)? else {
            return Err(MachineError::NotALeaf {
                path: in_path.clone(),
            });
        };
        if !index_allows(&chan.index, sender) {
            return Err(MachineError::NotEnabled {
                reason: format!("input localization at {in_path} refuses partner {sender}"),
            });
        }
        let subject = chan.subject.clone();
        let bound = Subst::var(var, payload);
        let subst = bound.with_loc(&chan.index, sender);
        let placed = place(cont, &subst, in_path.clone(), &mut self.names)?;
        Arc::make_mut(&mut self.tree).replace(in_path, placed)?;
        Ok(subject)
    }

    /// Unfolds the replication at `path`: the leaf `!P` becomes the node
    /// `(P, !P)`, leaving every other position untouched.
    fn unfold(&mut self, path: &Path) -> Result<StepInfo, MachineError> {
        let LeafState::Bang { body, unfolded } = self.tree.leaf_at(path)? else {
            return Err(MachineError::NotALeaf { path: path.clone() });
        };
        let copy = place(
            body,
            &Subst::EMPTY,
            path.child(Branch::Left),
            &mut self.names,
        )?;
        let replica = ProcTree::leaf(LeafState::Bang {
            body: body.clone(),
            unfolded: unfolded + 1,
        });
        Arc::make_mut(&mut self.tree).replace(path, ProcTree::node(copy, replica))?;
        Ok(StepInfo::Unfold { path: path.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_syntax::parse;

    fn cfg(src: &str) -> Config {
        Config::from_process(&parse(src).expect("parses")).expect("loads")
    }

    fn p(s: &str) -> Path {
        s.parse().expect("valid path")
    }

    #[test]
    fn plain_communication_fires() {
        let mut c = cfg("(^m)(c<m> | c(x).observe<x>)");
        let actions = c.enabled(0);
        assert_eq!(
            actions,
            vec![Action::Comm {
                out_path: p("0"),
                in_path: p("1")
            }]
        );
        let info = c.fire(&actions[0]).unwrap();
        match info {
            StepInfo::Comm(ci) => {
                assert_eq!(ci.sender, p("0"));
                assert_eq!(ci.receiver, p("1"));
                // The restriction sits above the parallel split, so it
                // executed at the root: the name's creator is ε.
                assert_eq!(ci.payload.creator(c.names()), Some(&Path::root()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The receiver now outputs the received m on observe.
        match c.tree().leaf_at(&p("1")).unwrap() {
            LeafState::Out { payload, .. } => {
                assert_eq!(payload.creator(c.names()), Some(&Path::root()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn localized_output_refuses_wrong_partner() {
        // The output is localized at absolute ‖1‖0 (via literal 0.10),
        // but the only listener on c is at ‖1‖1.
        let mut c = cfg("c@(0.10)<m> | (d(x) | c(y))");
        assert!(c.enabled(0).is_empty(), "no pairing allowed");
        // Forcing it errors out.
        let err = c
            .fire(&Action::Comm {
                out_path: p("0"),
                in_path: p("11"),
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::NotEnabled { .. }));
    }

    #[test]
    fn localized_output_accepts_the_right_partner() {
        let mut c = cfg("c@(0.10)<m> | (c(y).observe<y> | d(x))");
        let actions = c.enabled(0);
        assert_eq!(
            actions,
            vec![Action::Comm {
                out_path: p("0"),
                in_path: p("10")
            }]
        );
        c.fire(&actions[0]).unwrap();
        assert!(c.barbs().iter().any(|b| b.chan == "observe"));
    }

    #[test]
    fn location_variables_instantiate_and_pin_the_partner() {
        // B receives on c@lam, then wants a second message on c@lam.
        // Two senders exist; after hooking to the first, only that one may
        // deliver the second message.
        let mut c = cfg("c<m>.c<m> | (c<n>.c<n> | c@lam(x).c@lam(y).observe<y>)");
        // Fire: sender at ‖0 hooks B (at ‖1‖1).
        c.fire(&Action::Comm {
            out_path: p("0"),
            in_path: p("11"),
        })
        .unwrap();
        // Now the other sender at ‖1‖0 must be refused...
        let err = c
            .fire(&Action::Comm {
                out_path: p("10"),
                in_path: p("11"),
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::NotEnabled { .. }));
        // ...while the hooked partner can continue.
        c.fire(&Action::Comm {
            out_path: p("0"),
            in_path: p("11"),
        })
        .unwrap();
        assert!(c.barbs().iter().any(|b| b.chan == "observe"));
    }

    #[test]
    fn output_location_variables_pin_the_receiver() {
        // The sender's channel is localized by a location variable: after
        // the first send it is pinned to whoever received.
        let mut c = cfg("c@lam<m>.c@lam<m> | (c(x) | c(y).observe<y>)");
        c.fire(&Action::Comm {
            out_path: p("0"),
            in_path: p("10"),
        })
        .unwrap();
        // The second output may now only go to ‖1‖0, whose input is gone.
        assert!(c.enabled(0).is_empty());
    }

    #[test]
    fn unfold_grows_in_place() {
        let mut c = cfg("!(^m) c<m> | c(x)");
        let actions = c.enabled(1);
        assert!(actions.contains(&Action::Unfold { path: p("0") }));
        c.fire(&Action::Unfold { path: p("0") }).unwrap();
        // The copy sits at ‖0‖0, the replica at ‖0‖1; the input at ‖1 is
        // untouched.
        assert!(matches!(
            c.tree().leaf_at(&p("00")).unwrap(),
            LeafState::Out { .. }
        ));
        assert!(matches!(
            c.tree().leaf_at(&p("01")).unwrap(),
            LeafState::Bang { unfolded: 1, .. }
        ));
        // The unfold bound now blocks a second unfolding at bound 1.
        assert!(!c.enabled(1).contains(&Action::Unfold { path: p("01") }));
        assert!(c.enabled(2).contains(&Action::Unfold { path: p("01") }));
    }

    #[test]
    fn replicated_restrictions_are_fresh_per_copy() {
        let mut c = cfg("!(^m) c<m> | (c(x) | c(y))");
        c.fire(&Action::Unfold { path: p("0") }).unwrap();
        c.fire(&Action::Unfold { path: p("01") }).unwrap();
        let m1 = match c.tree().leaf_at(&p("00")).unwrap() {
            LeafState::Out { payload, .. } => payload.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let m2 = match c.tree().leaf_at(&p("010")).unwrap() {
            LeafState::Out { payload, .. } => payload.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(m1, m2, "each copy creates its own m");
        assert_eq!(
            m1.creator(c.names()),
            Some(&p("00")),
            "creator is the copy's position"
        );
        assert_eq!(m2.creator(c.names()), Some(&p("010")));
    }

    #[test]
    fn composite_payloads_are_stamped_with_the_sender() {
        let mut c = cfg("(^k)((^m) c<{m}k> | c(z).observe<z>)");
        let actions = c.enabled(0);
        let info = c.fire(&actions[0]).unwrap();
        match info {
            StepInfo::Comm(ci) => {
                // The ciphertext was built by the sender at ‖0.
                assert_eq!(ci.payload.creator(c.names()), Some(&p("0")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forwarding_preserves_the_creator() {
        // A creates m, sends to F, F forwards to B.
        let mut c = cfg("(^m) c<m> | (c(x).d<x> | d(y).observe<y>)");
        c.fire(&Action::Comm {
            out_path: p("0"),
            in_path: p("10"),
        })
        .unwrap();
        let info = c
            .fire(&Action::Comm {
                out_path: p("10"),
                in_path: p("11"),
            })
            .unwrap();
        match info {
            StepInfo::Comm(ci) => {
                // Still A's name: the creator is ‖0, not the forwarder.
                assert_eq!(ci.payload.creator(c.names()), Some(&p("0")));
                // The located view at the final receiver ‖1‖1 is the
                // relative address of A w.r.t. B.
                let loc = ci.payload.location_at(&p("11"), c.names()).unwrap();
                assert_eq!(loc, spi_addr::RelAddr::between(&p("11"), &p("0")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_decrypts_after_communication() {
        let mut c = cfg("(^k)((^m) c<{m}k> | c(z).case z of {w}k in observe<w>)");
        let actions = c.enabled(0);
        c.fire(&actions[0]).unwrap();
        // The decryption evaluated during placement; w is bound to m.
        match c.tree().leaf_at(&p("1")).unwrap() {
            LeafState::Out { chan, payload, .. } => {
                assert_eq!(chan.subject.display(c.names()), "observe");
                assert_eq!(payload.creator(c.names()), Some(&p("0")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_key_decryption_sticks() {
        let mut c = cfg("(^k, h)((^m) c<{m}k> | c(z).case z of {w}h in observe<w>)");
        let actions = c.enabled(0);
        c.fire(&actions[0]).unwrap();
        assert!(c.tree().leaf_at(&p("1")).unwrap().is_dead());
        assert!(c.barbs().is_empty());
    }

    #[test]
    fn deliver_checks_localization() {
        let mut c = cfg("c@(1.0)(x).observe<x>");
        // Input at root... the literal cannot resolve at the root leaf
        // (observer component ‖1 is not a suffix of ε) — the index stays
        // unresolved and refuses everyone.
        let mut names = NameTable::new();
        let v = names.intern_free(&spi_syntax::Name::new("v"));
        let _ = names;
        let err = c.deliver(&Path::root(), RtTerm::Id(v), p("1")).unwrap_err();
        assert!(matches!(err, MachineError::NotEnabled { .. }));
    }

    #[test]
    fn deliver_rejects_non_messages() {
        let mut c = cfg("c(x).observe<x>");
        let bad = crate::RtTerm::Var(spi_syntax::Var::new("y"));
        let err = c.deliver(&Path::root(), bad, p("1")).unwrap_err();
        assert!(matches!(err, MachineError::NotAMessage { .. }));
    }

    #[test]
    fn take_output_rejects_non_output_leaves() {
        let mut c = cfg("c(x)");
        let err = c.take_output(&Path::root(), &p("1")).unwrap_err();
        assert!(matches!(err, MachineError::NotALeaf { .. }));
    }

    #[test]
    fn firing_with_mismatched_subjects_errors() {
        let mut c = cfg("c<m> | d(x)");
        let err = c
            .fire(&Action::Comm {
                out_path: p("0"),
                in_path: p("1"),
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::NotEnabled { .. }));
    }

    #[test]
    fn split_executes_during_placement() {
        let mut c = cfg("c<(m, n)> | c(x).let (y, z) = x in observe<z>");
        let actions = c.enabled(0);
        c.fire(&actions[0]).unwrap();
        match c.tree().leaf_at(&p("1")).unwrap() {
            LeafState::Out { payload, .. } => {
                assert_eq!(payload.display(c.names()), "n");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn split_on_a_non_pair_sticks() {
        let mut c = cfg("c<m> | c(x).let (y, z) = x in observe<z>");
        let actions = c.enabled(0);
        c.fire(&actions[0]).unwrap();
        assert!(c.tree().leaf_at(&p("1")).unwrap().is_dead());
    }

    #[test]
    fn split_components_keep_their_creators() {
        let mut c = cfg("(^m, n) c<(m, n)> | c(x).let (y, z) = x in observe<y>");
        let actions = c.enabled(0);
        c.fire(&actions[0]).unwrap();
        match c.tree().leaf_at(&p("1")).unwrap() {
            LeafState::Out { payload, .. } => {
                // m was created at ‖0 by the sender's restriction.
                assert_eq!(payload.creator(c.names()), Some(&p("0")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    use crate::NameTable;
}
