import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tdmscan import config_model
from tdmscan.analyzer import analyze_document, explain_document
from tdmscan.antipatterns import detect_skip_on_failure
from tdmscan.config_model import (
    PHASE_BY_NAME,
    MalformedDocument,
    NotAPipeline,
    PhaseKind,
    RawDocument,
    clip,
    parse_config,
    resolve_stage_name,
)
from tdmscan.script_resolver import script_references

from conftest import MappingTree, make_doc, walk_commands


class TestParseListing:
    def test_stage_order(self, example_config):
        assert example_config.declared_stage_order == ["lint", "test", "deploy"]

    def test_four_jobs(self, example_config):
        assert len(example_config.jobs) == 4

    def test_has_deploy(self, example_config):
        assert any(job.deploys for job in example_config.jobs)

    def test_no_notifications(self, example_config):
        assert example_config.notifications is None

    def test_no_allow_failures(self, example_config):
        assert detect_skip_on_failure(example_config)[0] is False

    def test_lint_job_phases(self, example_config):
        lint = example_config.jobs[0]
        assert lint.stage_name == "lint"
        assert lint.phases[PhaseKind.INSTALL] == ("pip install flake8",)
        assert lint.phases[PhaseKind.SCRIPT] == ("flake8 src tests",)

    def test_deploy_job_condition(self, example_config):
        deploy = example_config.jobs[3]
        assert deploy.condition == "tag IS present"
        assert PhaseKind.DEPLOY in deploy.phases


class TestMinimalConfigs:
    def test_implicit_job(self):
        cfg = parse_config(make_doc("language: python\nscript: pytest\n"))
        assert len(cfg.jobs) == 1
        assert not any(job.deploys for job in cfg.jobs)
        assert cfg.jobs[0].phases[PhaseKind.SCRIPT] == ("pytest",)
        assert resolve_stage_name(cfg.jobs[0]) == "implicit"

    def test_list_script_ordinals(self):
        cfg = parse_config(make_doc("script:\n  - a\n  - b\n  - c\n"))
        assert cfg.jobs[0].phases[PhaseKind.SCRIPT] == ("a", "b", "c")

    def test_language_only_yields_one_job(self):
        cfg = parse_config(make_doc("language: python\n"))
        assert len(cfg.jobs) == 1
        assert cfg.jobs[0].phases == {}

    def test_command_count_preserved(self):
        cfg = parse_config(
            make_doc(
                "install: one\nscript:\n  - two\n  - three\nafter_script: four\n"
            )
        )
        assert len(walk_commands(cfg.jobs)) == 4
        # an acyclic list reused through aliases is not a cycle
        cfg = parse_config(make_doc("x: &a [one, two]\nscript: [*a, [*a]]\n"))
        assert len(walk_commands(cfg.jobs)) == 4


class TestGate:
    def test_example_is_pipeline(self, example_doc):
        assert len(parse_config(example_doc).jobs) == 4

    def test_empty_file(self):
        with pytest.raises(NotAPipeline):
            parse_config(make_doc(""))

    def test_docker_compose(self):
        with pytest.raises(NotAPipeline):
            parse_config(make_doc("services:\n  web:\n    image: nginx\n"))

    def test_malformed_yaml_is_malformed(self):
        with pytest.raises(MalformedDocument):
            parse_config(make_doc("a: [unclosed\n  b: }{"))

    def test_parse_config_raises_not_a_pipeline(self):
        with pytest.raises(NotAPipeline):
            parse_config(make_doc("services:\n  web: {}\n"))

    def test_parse_config_raises_malformed(self):
        with pytest.raises(MalformedDocument):
            parse_config(make_doc("language: python\n\t badly: indented: twice:\n"))
        with pytest.raises(MalformedDocument):
            parse_config(make_doc("script: &s [flake8, *s]\n"))

    def test_top_level_list_is_not_a_pipeline(self):
        with pytest.raises(NotAPipeline):
            parse_config(make_doc("- one\n- two\n"))


class TestStageNames:
    def test_explicit_stage(self, example_config):
        assert resolve_stage_name(example_config.jobs[0]) == "lint"

    def test_case_preserved(self):
        cfg = parse_config(
            make_doc(
                "jobs:\n  include:\n    - stage: Code Quality\n      script: true\n"
            )
        )
        assert resolve_stage_name(cfg.jobs[0]) == "Code Quality"

    def test_lint_and_capital_lint_distinct(self):
        lint = parse_config(
            make_doc("jobs:\n  include:\n    - stage: lint\n      script: x\n")
        )
        capital = parse_config(
            make_doc("jobs:\n  include:\n    - stage: Lint\n      script: x\n")
        )
        assert resolve_stage_name(lint.jobs[0]) != resolve_stage_name(capital.jobs[0])

    def test_stages_as_maps_record_condition(self):
        cfg = parse_config(
            make_doc(
                "language: python\n"
                "stages:\n"
                "  - name: test\n"
                "  - name: deploy\n"
                "    if: branch = master\n"
            )
        )
        assert cfg.declared_stage_order == ["test", "deploy"]
        assert cfg.stage_conditions == {"deploy": "branch = master"}

    def test_boolean_labels_read_as_commands_read_them(self, registry):
        # YAML reads `yes`, `on` and `true` as booleans; a label spells one
        # the way a command does, `true` rather than Python's `True`.
        doc = make_doc(
            "stages: [yes, {name: lint, if: true}]\n"
            "branches: {only: [on]}\n"
            "if: no\n"
            "jobs:\n"
            "  include:\n"
            "    - stage: true\n"
            "      if: off\n"
            "      branches: {only: [off, 2]}\n"
            "      script: [true, flake8 src]\n"
        )
        cfg = parse_config(doc)
        assert cfg.declared_stage_order == ["true", "lint"]
        assert cfg.stage_conditions == {"lint": "true"}
        assert cfg.global_branch_only == ["true"]
        assert cfg.global_condition == "false"
        (job,) = cfg.jobs
        assert (job.stage_name, job.condition, job.branch_only) == ("true", "false", ["false", "2"])
        assert job.phases[PhaseKind.SCRIPT] == ("true", "flake8 src")
        placement = explain_document(doc, MappingTree({}), registry).placements[0]
        assert placement.stage_label == "true"
        record, _ = analyze_document(doc, MappingTree({}), registry)
        assert {key[1] for key in record.keys if key[0] == "row"} == {"true"}


class TestAliasesAndMerging:
    def test_matrix_alias(self):
        cfg = parse_config(
            make_doc("matrix:\n  include:\n    - script: pytest\n")
        )
        assert len(cfg.jobs) == 1

    def test_jobs_as_plain_list(self):
        cfg = parse_config(make_doc("jobs:\n  - script: pytest\n"))
        assert len(cfg.jobs) == 1

    def test_allow_failures_under_jobs(self):
        cfg = parse_config(
            make_doc("jobs:\n  include:\n    - script: x\n  allow_failures:\n    - name: x\n")
        )
        assert detect_skip_on_failure(cfg)[0] is True

    def test_allow_failures_under_matrix(self):
        cfg = parse_config(
            make_doc("matrix:\n  include:\n    - script: x\n  allow_failures:\n    - env: A=1\n")
        )
        assert detect_skip_on_failure(cfg)[0] is True

    def test_global_phase_merges_when_not_overridden(self):
        cfg = parse_config(
            make_doc(
                "before_script: setup\n"
                "jobs:\n"
                "  include:\n"
                "    - script: one\n"
                "    - before_script: own\n"
                "      script: two\n"
            )
        )
        first, second = cfg.jobs
        assert first.phases[PhaseKind.BEFORE_SCRIPT] == ("setup",)
        assert second.phases[PhaseKind.BEFORE_SCRIPT] == ("own",)

    def test_inherited_phases_are_the_global_tuples(self, monkeypatch):
        built = []
        real = config_model._phase_commands

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(config_model, "_phase_commands", recording)
        cfg = parse_config(
            make_doc(
                "before_script: setup\n"
                "script: [lint, test]\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: a\n"
                "    - stage: b\n"
                "    - script: own\n"
            )
        )
        inherited = built[0]
        first, second, third = cfg.jobs
        for phase in (PhaseKind.BEFORE_SCRIPT, PhaseKind.SCRIPT):
            assert first.phases[phase] is second.phases[phase] is inherited[phase]
        assert third.phases[PhaseKind.BEFORE_SCRIPT] is inherited[PhaseKind.BEFORE_SCRIPT]
        assert third.phases[PhaseKind.SCRIPT] == ("own",)
        assert third.phases[PhaseKind.SCRIPT] is not inherited[PhaseKind.SCRIPT]

        built.clear()
        cfg = parse_config(make_doc("before_script: setup\nscript: [lint, test]\n"))
        (implicit,) = cfg.jobs
        assert implicit.phases is built[0]
        assert implicit.phases == {
            PhaseKind.BEFORE_SCRIPT: ("setup",),
            PhaseKind.SCRIPT: ("lint", "test"),
        }

    def test_earlier_global_phase_merges_in_lifecycle_order(self):
        cfg = parse_config(
            make_doc("before_install: setup\njobs:\n  include:\n    - script: lint\n")
        )
        assert list(cfg.jobs[0].phases) == [PhaseKind.BEFORE_INSTALL, PhaseKind.SCRIPT]
        assert [text for *_, text in walk_commands(cfg.jobs)] == ["setup", "lint"]

    def test_env_matrix_not_expanded(self):
        cfg = parse_config(
            make_doc(
                "jobs:\n  include:\n    - env:\n        - A=1\n        - A=2\n      script: x\n"
            )
        )
        assert len(cfg.jobs) == 1


class TestWarningsAndEdgeCases:
    def test_duplicate_key_warning(self):
        cfg = parse_config(make_doc("script: one\nscript: two\n"))
        assert any("duplicate key" in w for w in cfg.warnings)
        assert cfg.jobs[0].phases[PhaseKind.SCRIPT] == ("two",)

    def test_reader_replacement_flag_warns(self):
        doc = RawDocument("a/b", ".travis.yml", "script: ok\ufffd\n", invalid_utf8=True)
        assert parse_config(doc).warnings == ["invalid UTF-8 bytes replaced during decoding"]
        assert parse_config(make_doc("script: ok\ufffd\n")).warnings == []

    def test_unknown_keys_preserved(self):
        cfg = parse_config(make_doc("language: go\nfrobnicate: 12\nscript: x\n"))
        assert cfg.raw["frobnicate"] == 12

    def test_deploy_provider_mapping_marks_phase(self):
        cfg = parse_config(
            make_doc("script: x\ndeploy:\n  provider: pypi\n  username: u\n")
        )
        assert PhaseKind.DEPLOY in cfg.jobs[0].phases
        assert cfg.jobs[0].phases[PhaseKind.DEPLOY] == ()
        assert cfg.jobs[0].deploys

    def test_deploy_script_provider_commands(self):
        cfg = parse_config(
            make_doc("script: x\ndeploy:\n  provider: script\n  script: ./release.sh\n")
        )
        assert cfg.jobs[0].phases[PhaseKind.DEPLOY] == ("./release.sh",)

    def test_global_branches_only(self):
        cfg = parse_config(make_doc("script: x\nbranches:\n  only:\n    - main\n"))
        assert cfg.global_branch_only == ["main"]

    def test_branch_only_scalar(self):
        cfg = parse_config(make_doc("script: x\nbranches:\n  only: master\n"))
        assert cfg.global_branch_only == ["master"]

    @pytest.mark.parametrize(
        "document, prefix",
        [
            (
                "x: &v !!set {{{value}: null}}\nscript: [{aliases}]\n",
                "ignored non-command entry in phase 'script': ",
            ),
            (
                "x: &v [{value}]\njobs:\n  include: [{aliases}]\nscript: x\n",
                "ignored non-mapping job entry: ",
            ),
            (
                'x: &v "${value}.sh"\nscript: [{aliases}]\n',
                "script reference with unresolved variable: ",
            ),
        ],
        ids=["set-command", "list-job-entry", "variable-reference"],
    )
    def test_warnings_clip_each_aliased_value(self, document, prefix):
        # One warning per occurrence of the aliased value, each quoting at
        # most 160 characters of it.
        text = document.format(value="A" * 1000, aliases=", ".join(["*v"] * 20))
        cfg = parse_config(make_doc(text))
        warnings = list(cfg.warnings)
        script_references(cfg.jobs, warnings)
        assert len(warnings) == 20
        for warning in warnings:
            assert warning.startswith(prefix)
            assert len(warning) <= len(prefix) + 160

    def test_an_ignored_object_is_quoted_once_per_parse(self, monkeypatch):
        # An alias repeats its object: each occurrence still warns, but the
        # object's repr is made once.  The last set is a distinct object.
        text = (
            "x: &s !!set {a: null}\n"
            "y: &l [b]\n"
            "script: [*s, *s, *s, !!set {a: null}]\n"
            "jobs:\n  include: [*l, *l, *l]\n"
        )
        quoted = []
        short_repr = config_model._short_repr

        def counting_repr(item):
            quoted.append(item)
            return short_repr(item)

        monkeypatch.setattr(config_model, "_short_repr", counting_repr)
        cfg = parse_config(make_doc(text))
        assert cfg.warnings == [
            *["ignored non-command entry in phase 'script': {'a'}"] * 4,
            *["ignored non-mapping job entry: ['b']"] * 3,
        ]
        assert quoted == [{"a"}, {"a"}, ["b"]]
        assert len({id(item) for item in quoted}) == 3

    def test_aliases_of_a_long_string_are_quoted_in_bounded_memory(self):
        # One job entry holds 200 aliases of a 500,000-character string.  Its
        # whole repr would take 100 MB for a warning of 191 characters; the
        # parse peaks at 1.4 MiB under tracemalloc, and 4 MiB is the bound.
        text = (
            "language: python\nx: &s " + "a" * 500_000 + "\n"
            "jobs:\n  include:\n    - [" + ", ".join(["*s"] * 200) + "]\n"
        )
        doc = make_doc(text)
        tracemalloc.start()
        try:
            cfg = parse_config(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # clip(repr(entry)), whose first 160 characters a short list shares.
        quote = clip(repr(["a" * 200]))
        assert cfg.warnings == [f"ignored non-mapping job entry: {quote}"]
        assert len(cfg.warnings[0]) == 191


# Values of the kinds `_load_yaml` builds: scalars, and lists, dicts, sets
# and pair lists (lists of key/value tuples) of them, keyed by scalars.  An
# alias repeats one object, as `[value] * 3` does.
_KEYS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12)
)
_SCALARS = st.one_of(_KEYS, st.text(max_size=300), st.binary(max_size=8), st.dates())
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_KEYS, children, max_size=5),
        st.sets(_KEYS, max_size=5),
        st.lists(st.tuples(_KEYS, children), max_size=5),
        children.map(lambda value: [value] * 3),
    ),
    max_leaves=30,
)


class TestShortRepr:
    @settings(max_examples=300)
    @given(_VALUES, st.integers(3, 200))
    def test_clips_as_the_whole_repr_does(self, value, limit):
        whole = repr(value)
        short = config_model._short_repr(value, limit)
        assert clip(short, limit) == clip(whole, limit)
        assert whole.startswith(short)
        if len(whole) <= limit:
            assert short == whole

    @pytest.mark.parametrize(
        "value",
        [set(), (), ("a",), (1, [2, {3: 4}]), [(None, set())], {"k": {1.5}}, [[], {}]],
    )
    def test_empty_and_one_item_containers(self, value):
        assert config_model._short_repr(value) == repr(value)


class TestPostDeployStages:
    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(
                "stages: [test, report]\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: test\n"
                "      script: x\n"
                "    - stage: report\n"
                "      script: y\n",
                set(),
                id="no-deploy",
            ),
            pytest.param(
                "stages: [test, deploy]\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: test\n"
                "      script: x\n"
                "    - stage: deploy\n"
                "      deploy:\n"
                "        provider: pypi\n",
                set(),
                id="deploy-in-last-stage",
            ),
            pytest.param(
                "stages: [test, deploy, report]\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: test\n"
                "      script: x\n"
                "    - stage: deploy\n"
                "      deploy:\n"
                "        provider: pypi\n"
                "    - stage: report\n"
                "      script: y\n",
                {"report"},
                id="stage-after-deploy",
            ),
            pytest.param(
                "stages: [test]\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: early\n"
                "      script: x\n"
                "    - stage: publish\n"
                "      deploy:\n"
                "        provider: pypi\n"
                "    - stage: late\n"
                "      script: y\n"
                "    - stage: test\n"
                "      script: z\n",
                {"late"},
                id="undeclared-after-declared-in-job-order",
            ),
            pytest.param(
                "stages: [test, deploy, test]\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: deploy\n"
                "      deploy:\n"
                "        provider: pypi\n"
                "    - stage: test\n"
                "      script: x\n"
                "    - stage: report\n"
                "      script: y\n",
                {"report"},
                id="repeated-label-counts-at-first-position",
            ),
            pytest.param(
                "jobs:\n"
                "  include:\n"
                "    - script: x\n"
                "      deploy:\n"
                "        provider: pypi\n"
                "    - stage: report\n"
                "      script: y\n",
                {"report"},
                id="deploy-in-implicit-stage",
            ),
            pytest.param(
                "stages: [test, report]\n"
                "deploy:\n"
                "  provider: pypi\n"
                "jobs:\n"
                "  include:\n"
                "    - stage: test\n"
                "      script: x\n"
                "    - stage: report\n"
                "      script: y\n",
                {"report"},
                id="global-deploy-with-include",
            ),
        ],
    )
    def test_post_deploy_stages(self, text, expected):
        cfg = parse_config(make_doc(text))
        assert cfg.post_deploy_stages == frozenset(expected)


class TestNotifications:
    def test_email_true(self):
        cfg = parse_config(make_doc("script: x\nnotifications:\n  email: true\n"))
        assert cfg.notifications.channels == frozenset({"email"})

    def test_email_false(self):
        cfg = parse_config(make_doc("script: x\nnotifications:\n  email: false\n"))
        assert cfg.notifications.channels == frozenset()

    def test_unknown_channel_is_other(self):
        cfg = parse_config(make_doc("script: x\nnotifications:\n  gitter: room\n"))
        assert cfg.notifications.channels == frozenset({"other"})

    def test_modifier_keys_not_channels(self):
        cfg = parse_config(
            make_doc("script: x\nnotifications:\n  on_success: never\n")
        )
        assert cfg.notifications.channels == frozenset()

    def test_empty_slack_string_not_enabled(self):
        cfg = parse_config(make_doc("script: x\nnotifications:\n  slack: ''\n"))
        assert cfg.notifications.channels == frozenset()


_SIMPLE_YAML = st.fixed_dictionaries(
    {},
    optional={
        "language": st.sampled_from(["python", "go", "node_js"]),
        "script": st.one_of(
            st.sampled_from(["pytest", "flake8 .", "make test"]),
            st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
        ),
        "install": st.sampled_from(["pip install -r r.txt", "npm ci"]),
        "stages": st.lists(st.sampled_from(["lint", "test", "deploy"]), max_size=3),
    },
)


@given(_SIMPLE_YAML)
def test_parse_is_deterministic(data):
    import yaml

    if not (set(data) & {"language", "script", "install"}):
        data["language"] = "python"
    text = yaml.safe_dump(data)
    first = parse_config(make_doc(text))
    second = parse_config(make_doc(text))
    assert first == second


# --- Job.phases keys in lifecycle order ----------------------------------------

_PHASE_NAMES = st.lists(st.sampled_from(list(PHASE_BY_NAME)), unique=True)


@given(global_names=_PHASE_NAMES, job_names=st.lists(_PHASE_NAMES, max_size=3))
def test_job_phases_are_in_lifecycle_order(global_names, job_names):
    import yaml

    # Phases are written in the drawn order, not in lifecycle order.
    data = {name: [f"g-{name}"] for name in global_names}
    if job_names:
        data["jobs"] = {
            "include": [
                {name: [f"j{index}-{name}"] for name in names}
                for index, names in enumerate(job_names)
            ]
        }
    else:
        data["language"] = "python"
    cfg = parse_config(make_doc(yaml.safe_dump(data, sort_keys=False)))

    assert len(cfg.jobs) == max(1, len(job_names))
    for job, names in zip(cfg.jobs, job_names or [[]]):
        assert list(job.phases) == [kind for kind in PhaseKind if kind in job.phases]
        assert set(job.phases) == {PHASE_BY_NAME[name] for name in [*names, *global_names]}
        for phase, texts in job.phases.items():
            owner = f"j{job.index}" if phase.value in names else "g"
            assert texts == (f"{owner}-{phase.value}",)
    # The walk over every PhaseKind that was made before phases were kept
    # in order.
    walked = [
        (job.index, phase, ordinal, text)
        for job in cfg.jobs
        for phase in PhaseKind
        for ordinal, text in enumerate(job.phases.get(phase, ()))
    ]
    assert walk_commands(cfg.jobs) == walked
