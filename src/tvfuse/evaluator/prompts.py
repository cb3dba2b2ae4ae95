"""Named prompt templates for querying the source and merged models.

Templates substitute the literal token ``{QUESTION}``; substitution is a
plain string replace because the templates themselves contain braces.
"""

from __future__ import annotations

_STRUCTURED = (
    "Your task is to follow a systematic, thorough reasoning process before "
    "providing the final solution. This involves analyzing, summarizing, "
    "exploring, reassessing, and refining your thought process through multiple "
    "iterations. Structure your response into two sections: Thought and "
    "Solution. In the Thought section, present your reasoning using the format: "
    "“<think>\\n {thoughts} </think>\\n”. Each thought should include detailed "
    "analysis, brainstorming, verification, and refinement of ideas. After "
    "“</think>\\n” in the Solution section, provide the final, logical, and "
    "accurate answer, clearly derived from the exploration in the Thought "
    "section. If applicable, include the answer in \\boxed{} for closed-form "
    "results like multiple choices or mathematical solutions.\n"
    "User: This is the problem: {QUESTION}\n"
    "Assistant: <think>"
)

_COT = "User: {QUESTION}\nAnswer: Let's think step by step."

_HYBRID = _STRUCTURED + "\nAnswer: Let's think step by step."

PROMPT_PRESETS: dict[str, str] = {
    "qwen-structured": _STRUCTURED,
    "llama-cot": _COT,
    "llama-hybrid": _HYBRID,
    "plain": "{QUESTION}",
}

def render_prompt(question: str, preset_or_template: str) -> str:
    """Fill a preset (by name) or a raw template with the question text."""
    template = PROMPT_PRESETS.get(preset_or_template, preset_or_template)
    return template.replace("{QUESTION}", question)
